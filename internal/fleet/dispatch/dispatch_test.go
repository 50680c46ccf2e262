package dispatch

import (
	"context"
	"sync"
	"testing"

	"sacha/internal/attestation"
	"sacha/internal/channel"
	"sacha/internal/core"
	"sacha/internal/device"
	"sacha/internal/fleet"
	"sacha/internal/fleet/registry"
	"sacha/internal/netlist"
)

// mixedFactory provisions odd IDs on TinyLX, even on SmallLX — two
// plan-sharing classes, the shape affinity routing splits one-per-shard
// on a two-shard dispatcher.
func mixedFactory(id uint64) (*core.System, error) {
	geo := device.TinyLX()
	if id%2 == 0 {
		geo = device.SmallLX()
	}
	return core.NewSystem(core.Config{
		Geo:        geo,
		App:        netlist.Blinker(8),
		KeyMode:    core.KeyDynPUF,
		DeviceID:   id,
		LabLatency: -1,
		Seed:       int64(id),
	})
}

func mustRegistry(t testing.TB, n int, factory func(uint64) (*core.System, error)) *registry.Static {
	t.Helper()
	reg, err := registry.New(n, factory)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func mustSweep(t testing.TB, d *Dispatcher, reg registry.Registry, cfg fleet.SweepConfig, opts func(uint64) core.AttestOptions) *fleet.Report {
	t.Helper()
	rep, err := d.Sweep(context.Background(), reg, cfg, opts)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	return rep
}

// TestClassAffinityRouting: a two-class fleet on a two-shard dispatcher
// must land one class per shard, every device routed to its class's
// shard, and results attributed accordingly.
func TestClassAffinityRouting(t *testing.T) {
	reg := mustRegistry(t, 8, mixedFactory)
	d := New(Config{Shards: 2})
	rep := mustSweep(t, d, reg, fleet.SweepConfig{Concurrency: 4}, nil)
	if len(rep.Healthy) != 8 {
		t.Fatalf("healthy=%v failed=%v unreachable=%v", rep.Healthy, rep.Failed, rep.Unreachable)
	}
	if len(rep.PerShard) != 2 {
		t.Fatalf("PerShard = %+v", rep.PerShard)
	}
	for s, st := range rep.PerShard {
		if st.Shard != s || st.Routed != 4 || st.Classes != 1 {
			t.Fatalf("shard %d stats %+v — want 4 devices of 1 class each", s, st)
		}
		if st.PlansBuilt != 1 {
			t.Fatalf("shard %d built %d plans, want exactly its class's 1", s, st.PlansBuilt)
		}
	}
	// Affinity: all members of one class share one shard.
	shardOf := map[string]int{}
	for _, r := range rep.Results {
		if prev, ok := shardOf[r.Class]; ok && prev != r.Shard {
			t.Fatalf("class %s split across shards %d and %d", r.Class, prev, r.Shard)
		}
		shardOf[r.Class] = r.Shard
	}
	if len(shardOf) != 2 {
		t.Fatalf("expected 2 classes, saw %d", len(shardOf))
	}
}

// TestWarmShardCachesBuildZeroPlans: a long-lived dispatcher with
// per-shard caches must stop building plans after the first sweep —
// each shard's second sweep is served entirely from its own cache (the
// per-shard PlanCacheHits the issue asks asserted), with the per-device
// nonce rotation riding the patch path instead of rebuilds.
func TestWarmShardCachesBuildZeroPlans(t *testing.T) {
	reg := mustRegistry(t, 8, mixedFactory)
	d := New(Config{Shards: 2, PlanCacheSize: 4})
	cfg := fleet.SweepConfig{
		Concurrency: 4,
		Freshness:   attestation.PerDevice,
	}
	first := mustSweep(t, d, reg, cfg, nil)
	if len(first.Healthy) != 8 {
		t.Fatalf("first sweep: healthy=%v", first.Healthy)
	}
	for s, st := range first.PerShard {
		if st.PlansBuilt != 1 || st.PlanCacheHits != 0 {
			t.Fatalf("cold shard %d: built=%d hits=%d, want 1/0", s, st.PlansBuilt, st.PlanCacheHits)
		}
	}
	second := mustSweep(t, d, reg, cfg, nil)
	if len(second.Healthy) != 8 {
		t.Fatalf("second sweep: healthy=%v", second.Healthy)
	}
	for s, st := range second.PerShard {
		if st.PlansBuilt != 0 {
			t.Fatalf("warm shard %d still built %d plans", s, st.PlansBuilt)
		}
		if st.PlanCacheHits != 1 {
			t.Fatalf("warm shard %d: cache hits=%d, want 1", s, st.PlanCacheHits)
		}
	}
	if second.PlansBuilt != 0 || second.PlanCacheHits != 2 {
		t.Fatalf("warm rollup: built=%d hits=%d, want 0/2", second.PlansBuilt, second.PlanCacheHits)
	}
	if second.PlanPatches != 8 {
		t.Fatalf("per-device freshness patched %d of 8", second.PlanPatches)
	}
}

// gatedEndpoint blocks the first Send until release closes, and
// signals started exactly once. It is how the steal test removes all
// wall-clock timing from the schedule: stragglers are held on
// channels, not slowed by sleeps.
type gatedEndpoint struct {
	channel.Endpoint
	start   sync.Once
	started chan<- struct{}
	release <-chan struct{}
}

func (g *gatedEndpoint) Send(m []byte) error {
	g.start.Do(func() {
		if g.started != nil {
			close(g.started)
		}
		if g.release != nil {
			<-g.release
		}
	})
	return g.Endpoint.Send(m)
}

// TestWorkStealingDeterministic: seeded straggler injection with a
// fully synchronized schedule must show an exact steal count. Fleet of
// five: devices 1..4 are TinyLX (routed to shard 0 — the bigger class
// goes first), device 5 SmallLX on shard 1. Concurrency 2 → worker 0
// homes on shard 0, worker 1 on shard 1. Device 1 is the straggler: it
// blocks until everything else finished. Worker 1 is gated until the
// straggler is definitely in flight on worker 0, then drains its own
// single device and must steal devices 4, 3, 2 — exactly three steals,
// every run, because worker 0 is pinned the whole time.
func TestWorkStealingDeterministic(t *testing.T) {
	reg := mustRegistry(t, 5, func(id uint64) (*core.System, error) {
		geo := device.TinyLX()
		if id == 5 {
			geo = device.SmallLX()
		}
		return core.NewSystem(core.Config{
			Geo:        geo,
			App:        netlist.Blinker(8),
			KeyMode:    core.KeyDynPUF,
			DeviceID:   id,
			LabLatency: -1,
			Seed:       int64(id),
		})
	})
	stragglerStarted := make(chan struct{})
	releaseStraggler := make(chan struct{})
	var others sync.WaitGroup // devices 2..5
	others.Add(4)
	go func() {
		others.Wait()
		close(releaseStraggler)
	}()
	d := New(Config{Shards: 2})
	opts := func(id uint64) core.AttestOptions {
		return core.AttestOptions{
			WrapVerifierChannel: func(ep channel.Endpoint) channel.Endpoint {
				switch id {
				case 1:
					// The straggler: in flight immediately, done last.
					return &gatedEndpoint{Endpoint: ep, started: stragglerStarted, release: releaseStraggler}
				case 5:
					// Worker 1's own device: held until the straggler is
					// pinned on worker 0, so worker 1 can never grab it.
					return &notifyClose{Endpoint: &gatedEndpoint{Endpoint: ep, release: stragglerStarted}, done: others.Done}
				default:
					return &notifyClose{Endpoint: ep, done: others.Done}
				}
			},
		}
	}
	rep := mustSweep(t, d, reg, fleet.SweepConfig{Concurrency: 2}, opts)
	if len(rep.Healthy) != 5 {
		t.Fatalf("healthy=%v unreachable=%v failed=%v", rep.Healthy, rep.Unreachable, rep.Failed)
	}
	if rep.Steals != 3 {
		t.Fatalf("steals=%d, want exactly 3", rep.Steals)
	}
	if rep.PerShard[1].Stolen != 3 || rep.PerShard[0].Stolen != 0 {
		t.Fatalf("per-shard steals %+v", rep.PerShard)
	}
	// Attribution: stolen devices keep their class's (victim) shard but
	// name the thief worker; device 1 stays with worker 0.
	for _, r := range rep.Results {
		switch r.DeviceID {
		case 1:
			if r.Shard != 0 || r.Worker != 0 {
				t.Fatalf("straggler attribution: %+v", r)
			}
		case 2, 3, 4:
			if r.Shard != 0 || r.Worker != 1 {
				t.Fatalf("stolen device %d attribution: shard=%d worker=%d", r.DeviceID, r.Shard, r.Worker)
			}
		case 5:
			if r.Shard != 1 || r.Worker != 1 {
				t.Fatalf("home device 5 attribution: %+v", r)
			}
		}
	}
}

// notifyClose signals session completion: runPlan closes the wrapped
// verifier endpoint exactly once, after the report is in hand.
type notifyClose struct {
	channel.Endpoint
	once sync.Once
	done func()
}

func (n *notifyClose) Close() error {
	n.once.Do(n.done)
	return n.Endpoint.Close()
}

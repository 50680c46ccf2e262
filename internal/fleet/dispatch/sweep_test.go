package dispatch

import (
	"testing"

	"sacha/internal/attestation"
	"sacha/internal/core"
	"sacha/internal/device"
	"sacha/internal/fleet"
	"sacha/internal/fleet/registry"
	"sacha/internal/netlist"
	"sacha/internal/prover"
	"sacha/internal/store"
	"sacha/internal/verifier"
)

// smallFactory provisions one-class SmallLX members.
func smallFactory(id uint64) (*core.System, error) {
	return core.NewSystem(core.Config{
		Geo:        device.SmallLX(),
		App:        netlist.Blinker(8),
		KeyMode:    core.KeyStatPUF,
		DeviceID:   id,
		LabLatency: -1,
		Seed:       int64(id),
	})
}

// oneShard provisions an n-member static registry and the one-shard
// dispatcher that sweeps it — the single-engine layout.
func oneShard(t testing.TB, n int, factory func(uint64) (*core.System, error)) (*Dispatcher, *registry.Static) {
	t.Helper()
	return New(Config{Shards: 1}), mustRegistry(t, n, factory)
}

// mustSystem resolves a fleet member the test provisioned itself; a
// missing member is a test bug.
func mustSystem(t testing.TB, reg registry.Registry, id uint64) *core.System {
	t.Helper()
	sys, ok := reg.System(id)
	if !ok {
		t.Fatalf("fleet has no device %d", id)
	}
	return sys
}

// tamperFrame flips one bit of the device's idx-th dynamic frame
// between configuration and readback.
func tamperFrame(sys *core.System, idx int) core.AttestOptions {
	return core.AttestOptions{TamperDevice: func(d *prover.Device) {
		d.Fabric.Mem.Frame(sys.DynFrames()[idx])[5] ^= 2
	}}
}

func TestHealthyFleet(t *testing.T) {
	d, reg := oneShard(t, 4, smallFactory)
	rep := mustSweep(t, d, reg, fleet.SweepConfig{Concurrency: 1}, nil)
	if len(rep.Healthy) != 4 || len(rep.Compromised) != 0 {
		t.Fatalf("healthy=%v compromised=%v", rep.Healthy, rep.Compromised)
	}
	for _, r := range rep.Results {
		if !r.Healthy() || r.Elapsed <= 0 {
			t.Fatalf("bad result %+v", r)
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	d, reg := oneShard(t, 3, smallFactory)
	seq := mustSweep(t, d, reg, fleet.SweepConfig{Concurrency: 1}, nil)
	par := mustSweep(t, d, reg, fleet.SweepConfig{}, nil)
	if len(seq.Healthy) != len(par.Healthy) {
		t.Fatalf("sequential %d healthy vs parallel %d", len(seq.Healthy), len(par.Healthy))
	}
}

func TestSharedPlanSweepHealthy(t *testing.T) {
	d, reg := oneShard(t, 5, smallFactory)
	nonce := uint64(0xFEED)
	rep := mustSweep(t, d, reg, fleet.SweepConfig{Concurrency: 4, Nonce: &nonce}, nil)
	if len(rep.Healthy) != 5 {
		t.Fatalf("healthy = %v (failed=%v unreachable=%v compromised=%v)",
			rep.Healthy, rep.Failed, rep.Unreachable, rep.Compromised)
	}
	// One device class — geometry, application, build and key mode are
	// identical across the fleet — so the sweep builds exactly one plan.
	if rep.PlansBuilt != 1 {
		t.Fatalf("plans built = %d, want 1", rep.PlansBuilt)
	}
}

// spendRecorder forwards to the journal and remembers what it spent.
type spendRecorder struct {
	journal *store.NonceJournal
	spent   []uint64
}

func (s *spendRecorder) Spend(nonce uint64) error {
	s.spent = append(s.spent, nonce)
	return s.journal.Spend(nonce)
}

// TestZeroValueSweepSharesPlans: the zero-value SweepConfig is a
// PerSweep sweep on shared per-class plans, so an anti-replay journal
// sees the one sweep nonce — there is no sweep path whose nonces the
// journal cannot spend.
func TestZeroValueSweepSharesPlans(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	journal := &spendRecorder{journal: st.Nonces()}
	d, reg := oneShard(t, 4, mixedFactory)
	rep := mustSweep(t, d, reg, fleet.SweepConfig{Nonces: journal}, nil)
	if len(rep.Healthy) != 4 {
		t.Fatalf("healthy = %v (failed=%v)", rep.Healthy, rep.Failed)
	}
	if rep.PlansBuilt != 2 {
		t.Fatalf("plans built = %d over a two-class fleet, want 2", rep.PlansBuilt)
	}
	if len(journal.spent) != 1 {
		t.Fatalf("journal saw %d spends, want the one sweep nonce", len(journal.spent))
	}
	if !st.Nonces().Spent(journal.spent[0]) {
		t.Fatalf("sweep nonce %#x not spent in the journal", journal.spent[0])
	}
}

func TestSharedPlanDetectsTamper(t *testing.T) {
	// The shared plan must not blunt detection: a tampered member still
	// comes back Compromised while its classmates attest Healthy off the
	// very same plan.
	d, reg := oneShard(t, 4, smallFactory)
	const bad = 2
	rep := mustSweep(t, d, reg, fleet.SweepConfig{Concurrency: 4}, func(id uint64) core.AttestOptions {
		if id != bad {
			return core.AttestOptions{}
		}
		return tamperFrame(mustSystem(t, reg, id), 11)
	})
	if len(rep.Compromised) != 1 || rep.Compromised[0] != bad {
		t.Fatalf("compromised = %v, want [%d]", rep.Compromised, bad)
	}
	if len(rep.Healthy) != 3 {
		t.Fatalf("healthy = %v", rep.Healthy)
	}
	if rep.PlansBuilt != 1 {
		t.Fatalf("plans built = %d, want 1", rep.PlansBuilt)
	}
}

func TestPlanCacheRepeatedSweepBuildsZeroPlans(t *testing.T) {
	// The plan-cache contract of the perf work: a repeated sweep with a
	// pinned nonce pays zero plan builds — the cache returns the previous
	// sweep's plans by (golden digest, geometry, options) key — and the
	// verdicts are unchanged.
	reg := mustRegistry(t, 4, smallFactory)
	d := New(Config{Shards: 1, PlanCacheSize: 4})
	nonce := uint64(0xFEED)
	cfg := fleet.SweepConfig{Concurrency: 2, Nonce: &nonce}
	first := mustSweep(t, d, reg, cfg, nil)
	if len(first.Healthy) != 4 {
		t.Fatalf("first sweep healthy = %v (failed=%v)", first.Healthy, first.Failed)
	}
	if first.PlansBuilt != 1 || first.PlanCacheHits != 0 {
		t.Fatalf("first sweep built=%d hits=%d, want 1/0", first.PlansBuilt, first.PlanCacheHits)
	}
	second := mustSweep(t, d, reg, cfg, nil)
	if len(second.Healthy) != 4 {
		t.Fatalf("second sweep healthy = %v", second.Healthy)
	}
	if second.PlansBuilt != 0 || second.PlanCacheHits != 1 {
		t.Fatalf("second sweep built=%d hits=%d, want 0/1", second.PlansBuilt, second.PlanCacheHits)
	}
	// A different nonce is a different golden image: the cache must NOT
	// serve the old plan for it.
	other := uint64(0xD1CE)
	cfg.Nonce = &other
	third := mustSweep(t, d, reg, cfg, nil)
	if third.PlansBuilt != 1 || third.PlanCacheHits != 0 {
		t.Fatalf("new-nonce sweep built=%d hits=%d, want 1/0", third.PlansBuilt, third.PlanCacheHits)
	}
}

func TestWindowedSweep(t *testing.T) {
	// The pipelined session composes with the fleet path: a sweep whose
	// per-device runs use Window > 1 attests everyone.
	d, reg := oneShard(t, 3, smallFactory)
	nonce := uint64(0xFEED)
	rep := mustSweep(t, d, reg, fleet.SweepConfig{Concurrency: 3, Nonce: &nonce}, func(uint64) core.AttestOptions {
		pol := attestation.DefaultRetryPolicy()
		pol.Window = 8
		return core.AttestOptions{Opts: verifier.Options{Retry: pol}}
	})
	if len(rep.Healthy) != 3 {
		t.Fatalf("healthy = %v (failed=%v unreachable=%v compromised=%v)",
			rep.Healthy, rep.Failed, rep.Unreachable, rep.Compromised)
	}
}

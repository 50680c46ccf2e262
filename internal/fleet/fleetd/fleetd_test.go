package fleetd

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sacha/internal/attestation"
	"sacha/internal/channel"
	"sacha/internal/core"
	"sacha/internal/device"
	"sacha/internal/fleet"
	"sacha/internal/fleet/registry"
	"sacha/internal/fleet/scheduler"
	"sacha/internal/netlist"
	"sacha/internal/verifier"
)

// openEndpoint counts itself open from its wrapping until its first
// Close returns, keeping the deadline receive of what it wraps.
type openEndpoint struct {
	channel.UntilEndpoint
	open *atomic.Int64
	once sync.Once
}

func (e *openEndpoint) Close() error {
	err := e.UntilEndpoint.Close()
	e.once.Do(func() { e.open.Add(-1) })
	return err
}

// TestDrainGraceCutsTheSweep: a drain whose grace runs out cancels the
// in-flight sweep. Run returns within the grace plus a margin, the
// member still attesting is reported Unreachable (never Compromised),
// and no session endpoint is left open.
func TestDrainGraceCutsTheSweep(t *testing.T) {
	const (
		slow  = 2
		grace = 300 * time.Millisecond
	)
	reg, err := registry.New(3, func(id uint64) (*core.System, error) {
		return core.NewSystem(core.Config{
			Geo:        device.TinyLX(),
			App:        netlist.Blinker(8),
			KeyMode:    core.KeyStatPUF,
			DeviceID:   id,
			LabLatency: -1,
			Seed:       int64(id),
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	var open atomic.Int64
	slowStarted := make(chan struct{})
	opts := func(id uint64) core.AttestOptions {
		var o core.AttestOptions
		o.WrapVerifierChannel = func(ep channel.Endpoint) channel.Endpoint {
			if id == slow {
				// Half the messages vanish and each command may be re-sent
				// 40 times, 30 ms apart: the session needs seconds.
				ep = channel.NewFault(ep, channel.FaultConfig{DropProb: 0.5, Seed: 7})
				close(slowStarted)
			}
			open.Add(1)
			return &openEndpoint{UntilEndpoint: ep.(channel.UntilEndpoint), open: &open}
		}
		if id == slow {
			o.Opts = verifier.Options{Retry: attestation.RetryPolicy{
				Timeout: 30 * time.Millisecond, MaxRetries: 40,
				Backoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond, Seed: 1,
			}}
		}
		return o
	}
	d := New(Config{
		Registry:   reg,
		Template:   fleet.SweepConfig{Concurrency: 2},
		Opts:       opts,
		DrainGrace: grace,
	})
	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan struct{})
	go func() {
		d.Run(ctx)
		close(ran)
	}()
	type result struct {
		rec SweepRecord
		err error
	}
	swept := make(chan result, 1)
	go func() {
		rec, err := d.Sweep(context.Background(), "api", "")
		swept <- result{rec, err}
	}()
	<-slowStarted
	t0 := time.Now()
	cancel()
	select {
	case <-ran:
	case <-time.After(grace + 10*time.Second):
		t.Fatal("Run did not return after the drain grace")
	}
	// The margin absorbs a loaded machine and the race detector; the
	// slow session alone needs far longer than grace plus margin.
	if elapsed := time.Since(t0); elapsed > grace+2*time.Second {
		t.Fatalf("Run returned %v after the drain began, grace %v", elapsed, grace)
	}
	if n := open.Load(); n != 0 {
		t.Fatalf("%d session endpoint(s) open after Run returned", n)
	}
	res := <-swept
	if res.err != nil {
		t.Fatalf("sweep: %v", res.err)
	}
	rec := res.rec
	if rec.Devices != 3 || rec.Compromised != 0 || rec.Failed != 0 ||
		rec.Unreachable < 1 || rec.Healthy+rec.Unreachable != 3 {
		t.Fatalf("cut sweep verdicts: %+v", rec)
	}
}

// TestDrainGraceCoversScheduledSweeps: a scheduled sweep gets the same
// drain grace as an API sweep. Two classes fire on a cadence over a
// slow link, so one class's sweep runs while the other's firing queues
// behind it; Run is cancelled mid-sweep. The in-flight sweep must finish
// with every (honest) device Healthy, the queued firing must neither
// run nor be recorded, and Run must return once that sweep has ended.
func TestDrainGraceCoversScheduledSweeps(t *testing.T) {
	reg, err := registry.New(4, func(id uint64) (*core.System, error) {
		return core.NewSystem(core.Config{
			Geo:        device.TinyLX(),
			App:        netlist.Blinker(8),
			BuildID:    id%2 + 1, // two classes of two devices
			KeyMode:    core.KeyStatPUF,
			DeviceID:   id,
			LabLatency: -1,
			Seed:       int64(id),
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	var once sync.Once
	opts := func(uint64) core.AttestOptions {
		return core.AttestOptions{WrapVerifierChannel: func(ep channel.Endpoint) channel.Endpoint {
			once.Do(func() { close(started) })
			// Lockstep readback over 2 ms each way: a sweep of two
			// devices takes about a second.
			return channel.NewDelayEndpoint(ep, 2*time.Millisecond)
		}}
	}
	d := New(Config{
		Registry:   reg,
		Template:   fleet.SweepConfig{Concurrency: 1},
		Scheduler:  scheduler.Config{Default: scheduler.Cadence{Every: 10 * time.Millisecond}},
		Opts:       opts,
		DrainGrace: 30 * time.Second,
	})
	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan struct{})
	go func() {
		d.Run(ctx)
		close(ran)
	}()
	<-started
	time.Sleep(50 * time.Millisecond) // mid-sweep, both firings admitted
	drainStart := time.Now()
	cancel()
	select {
	case <-ran:
	case <-time.After(20 * time.Second):
		t.Fatal("Run did not return after the in-flight sweep")
	}
	returned := time.Now()

	d.mu.Lock()
	records := append([]SweepRecord(nil), d.records...)
	d.mu.Unlock()
	if len(records) == 0 {
		t.Fatal("the in-flight scheduled sweep was not recorded")
	}
	for _, rec := range records {
		if !rec.StartedAt.Before(drainStart) {
			t.Errorf("sweep %d (%s, class %s) started %v after the drain began",
				rec.ID, rec.Trigger, rec.Class, rec.StartedAt.Sub(drainStart))
		}
		if rec.Err != "" || rec.Devices != 2 || rec.Healthy != 2 {
			t.Errorf("sweep %d (%s): %+v, want 2 of 2 Healthy", rec.ID, rec.Trigger, rec)
		}
	}
	last := records[len(records)-1]
	end := last.StartedAt.Add(time.Duration(last.ElapsedNS))
	if !end.After(drainStart) {
		t.Fatalf("the last sweep ended before the drain began; the test never cut a sweep")
	}
	if returned.Before(end) {
		t.Fatalf("Run returned %v before the in-flight sweep ended", end.Sub(returned))
	}
}

// FuzzFleetdSweepRequest throws hostile bodies at the POST /fleet/sweep
// decoder. It must never panic, and it fails closed: an accepted body is
// one JSON value (or empty) with no bytes after it and only the
// request's own fields, appending anything to it or adding an unknown
// field gets it refused, and the decoded request re-encodes and decodes
// back to itself.
func FuzzFleetdSweepRequest(f *testing.F) {
	for _, seed := range []string{
		``, `{}`, `null`, `{"wait": true}`,
		`{"class": "TinyLX", "wait": true, "freshness": "per-device", "nonce": 7, "nonce_seed": 9}`,
		`{"wait": true, "nonceseed": 7}`, `{"wait": true} trailing`, `{}{}`, `[1]`, `{"nonce": -1}`,
	} {
		f.Add([]byte(seed))
	}
	fields := []string{"class", "wait", "freshness", "nonce", "nonce_seed"}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req sweepRequest
		if decodeSweepRequest(bytes.NewReader(body), &req) != nil {
			return
		}
		trimmed := bytes.TrimSpace(body)
		if len(trimmed) > 0 && !json.Valid(trimmed) {
			t.Fatalf("accepted %q: not a single JSON value", body)
		}
		var obj map[string]json.RawMessage
		if json.Unmarshal(trimmed, &obj) == nil {
			for k := range obj {
				known := false
				for _, name := range fields {
					known = known || strings.EqualFold(k, name)
				}
				if !known {
					t.Fatalf("accepted %q with unknown field %q", body, k)
				}
			}
		}
		if len(trimmed) > 0 {
			var again sweepRequest
			if decodeSweepRequest(bytes.NewReader(append(bytes.Clone(body), " {}"...)), &again) == nil {
				t.Fatalf("accepted %q followed by a second object", body)
			}
		}
		if obj != nil {
			extra := append([]byte(`{"unknown_field": 1,`), trimmed[1:]...)
			var again sweepRequest
			if decodeSweepRequest(bytes.NewReader(extra), &again) == nil {
				t.Fatalf("accepted %q", extra)
			}
		}
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encode %+v: %v", req, err)
		}
		var back sweepRequest
		if err := decodeSweepRequest(bytes.NewReader(enc), &back); err != nil {
			t.Fatalf("re-encoded %s refused: %v", enc, err)
		}
		if !reflect.DeepEqual(back, req) {
			t.Fatalf("%q decodes to %+v, its re-encoding %s to %+v", body, req, enc, back)
		}
	})
}

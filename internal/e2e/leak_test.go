package e2e

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sacha/internal/attestation"
	"sacha/internal/core"
	"sacha/internal/device"
	"sacha/internal/fleet"
	"sacha/internal/fleet/dispatch"
	"sacha/internal/fleet/registry"
	"sacha/internal/netlist"
	"sacha/internal/obs"
)

// TestSweepCancellationLeaksNothing cancels a fleet sweep mid-flight
// and then requires a full cleanup: the Sessions join must release (no
// abandoned attestation or receive-pump goroutine still running), the
// process goroutine count must return to its pre-sweep baseline, and
// the in-flight gauges must read zero. This is the leak surface a soak
// campaign hammers thousands of times — one stuck session per kill
// would otherwise accumulate into an unbounded-memory failure.
func TestSweepCancellationLeaksNothing(t *testing.T) {
	reg, err := registry.New(8, func(id uint64) (*core.System, error) {
		return core.NewSystem(core.Config{
			Geo:        device.TinyLX(),
			App:        netlist.Blinker(8),
			KeyMode:    core.KeyStatPUF,
			DeviceID:   id,
			BuildID:    rigBuildID,
			LabLatency: -1,
			Seed:       int64(id),
		})
	})
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}

	runtime.GC()
	baseline := runtime.NumGoroutine()

	var sessions sync.WaitGroup
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int64
	_, err = dispatch.New(dispatch.Config{Shards: 1}).Sweep(ctx, reg, fleet.SweepConfig{
		Concurrency: 4,
		Sessions:    &sessions,
	}, func(id uint64) core.AttestOptions {
		// Cut the sweep down after the third device starts, with workers
		// mid-protocol — the campaign's kill event.
		if started.Add(1) == 3 {
			cancel()
		}
		var o core.AttestOptions
		o.Opts.Retry = attestation.RetryPolicy{
			Timeout:    100 * time.Millisecond,
			MaxRetries: 4,
			Backoff:    2 * time.Millisecond,
			MaxBackoff: 10 * time.Millisecond,
			Seed:       int64(id),
			Window:     8,
		}
		return o
	})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}

	// The join must release: every session the sweep launched — the
	// abandoned ones included — runs to completion on the in-process
	// link instead of leaking.
	joined := make(chan struct{})
	go func() { sessions.Wait(); close(joined) }()
	select {
	case <-joined:
	case <-time.After(30 * time.Second):
		t.Fatal("Sessions join did not release: abandoned attestation goroutines still running")
	}

	// Goroutine count settles back to the baseline (pumps, session
	// goroutines and sweep workers all gone).
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s", n, baseline,
				buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}

	// No stuck in-flight accounting: both gauges read zero once the
	// stragglers drained. (Registration is idempotent — these resolve to
	// the families dispatch and attestation already registered.)
	sweepInflight := obs.Default().Gauge("sacha_sweep_inflight",
		"Device attestations currently running in fleet sweeps.")
	windowInflight := obs.Default().Gauge("sacha_attest_window_inflight",
		"Envelopes currently in flight in windowed sessions.")
	if v := sweepInflight.Value(); v != 0 {
		t.Errorf("sacha_sweep_inflight = %d after cancelled sweep, want 0", v)
	}
	if v := windowInflight.Value(); v != 0 {
		t.Errorf("sacha_attest_window_inflight = %d after cancelled sweep, want 0", v)
	}
}

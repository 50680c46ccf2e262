package dispatch

import (
	"context"
	"errors"
	"testing"
	"time"

	"sacha/internal/attestation"
	"sacha/internal/channel"
	"sacha/internal/core"
	"sacha/internal/device"
	"sacha/internal/fleet"
	"sacha/internal/netlist"
	"sacha/internal/verifier"
)

// tinyFactory provisions fleet members on the TinyLX geometry, keeping
// large-fleet sweeps (and the race detector runs over them) fast.
func tinyFactory(id uint64) (*core.System, error) {
	return core.NewSystem(core.Config{
		Geo:        device.TinyLX(),
		App:        netlist.Blinker(8),
		KeyMode:    core.KeyStatPUF,
		DeviceID:   id,
		LabLatency: -1,
		Seed:       int64(id),
	})
}

// sweepRetry is the reliable-transport policy fleet sweeps use when a
// member's link is wrapped in the fault injector.
func sweepRetry() attestation.RetryPolicy {
	return attestation.RetryPolicy{
		Timeout:    25 * time.Millisecond,
		MaxRetries: 3,
		Backoff:    time.Millisecond,
		MaxBackoff: 4 * time.Millisecond,
		Seed:       1,
	}
}

// TestLargeFleetBoundedSweep is the scale check (run it under -race):
// 64 independently provisioned devices swept through the bounded pool at
// concurrency 8. Every member must attest healthy, every result must be
// populated.
func TestLargeFleetBoundedSweep(t *testing.T) {
	const fleetSize = 64
	d, reg := oneShard(t, fleetSize, tinyFactory)
	rep := mustSweep(t, d, reg, fleet.SweepConfig{Concurrency: 8}, nil)
	if len(rep.Healthy) != fleetSize {
		t.Fatalf("healthy=%d compromised=%v unreachable=%v failed=%v",
			len(rep.Healthy), rep.Compromised, rep.Unreachable, rep.Failed)
	}
	if len(rep.Results) != fleetSize {
		t.Fatalf("results=%d, want %d", len(rep.Results), fleetSize)
	}
	for _, r := range rep.Results {
		if r.Report == nil || r.Elapsed <= 0 {
			t.Fatalf("device %d: incomplete result %+v", r.DeviceID, r)
		}
	}
}

// TestUnreachableVsCompromised is the classification contract: a member
// behind a dead link must land in Unreachable, a tampered member in
// Compromised, and neither bucket may contaminate the other.
func TestUnreachableVsCompromised(t *testing.T) {
	const (
		fleetSize   = 6
		tampered    = 2
		unreachable = 4
	)
	d, reg := oneShard(t, fleetSize, tinyFactory)
	rep := mustSweep(t, d, reg, fleet.SweepConfig{Concurrency: 3}, func(id uint64) core.AttestOptions {
		switch id {
		case tampered:
			return tamperFrame(mustSystem(t, reg, id), 3)
		case unreachable:
			return core.AttestOptions{
				Opts: verifier.Options{Retry: sweepRetry()},
				WrapVerifierChannel: func(ep channel.Endpoint) channel.Endpoint {
					return channel.NewFault(ep, channel.FaultConfig{DropProb: 1})
				},
			}
		}
		return core.AttestOptions{}
	})
	if len(rep.Compromised) != 1 || rep.Compromised[0] != tampered {
		t.Fatalf("compromised = %v, want [%d]", rep.Compromised, tampered)
	}
	if len(rep.Unreachable) != 1 || rep.Unreachable[0] != unreachable {
		t.Fatalf("unreachable = %v, want [%d]", rep.Unreachable, unreachable)
	}
	if len(rep.Healthy) != fleetSize-2 {
		t.Fatalf("healthy = %v", rep.Healthy)
	}
	for _, r := range rep.Results {
		if r.DeviceID == unreachable && !attestation.IsTransport(r.Err) {
			t.Fatalf("unreachable member's error is not typed: %v", r.Err)
		}
	}
}

// TestPerDeviceTimeoutIsUnreachable: a member whose attestation cannot
// finish inside the per-device deadline is reported Unreachable with the
// deadline error; the rest of the fleet is unaffected.
func TestPerDeviceTimeoutIsUnreachable(t *testing.T) {
	const slow = 2
	d, reg := oneShard(t, 3, tinyFactory)
	// The slow member's link drops everything; its own retry budget
	// (~4 x 2.5s) far exceeds the 3s per-device deadline, so the deadline
	// fires first and the abandoned attempt still terminates on its own
	// shortly after. The deadline leaves healthy members a wide margin:
	// a TinyLX attestation finishes in well under a second even with the
	// race detector on a loaded machine.
	rep := mustSweep(t, d, reg, fleet.SweepConfig{Concurrency: 2, PerDeviceTimeout: 3 * time.Second},
		func(id uint64) core.AttestOptions {
			if id != slow {
				return core.AttestOptions{}
			}
			return core.AttestOptions{
				Opts: verifier.Options{Retry: attestation.RetryPolicy{
					Timeout: 2500 * time.Millisecond, MaxRetries: 3, Backoff: time.Millisecond,
				}},
				WrapVerifierChannel: func(ep channel.Endpoint) channel.Endpoint {
					return channel.NewFault(ep, channel.FaultConfig{DropProb: 1})
				},
			}
		})
	if len(rep.Unreachable) != 1 || rep.Unreachable[0] != slow {
		t.Fatalf("unreachable = %v, want [%d]", rep.Unreachable, slow)
	}
	if len(rep.Healthy) != 2 {
		t.Fatalf("healthy = %v", rep.Healthy)
	}
	for _, r := range rep.Results {
		if r.DeviceID == slow && !errors.Is(r.Err, context.DeadlineExceeded) {
			t.Fatalf("slow member error = %v, want DeadlineExceeded", r.Err)
		}
	}
}

// TestSweepCancellation: a cancelled context fails the not-yet-started
// members fast, as Unreachable carrying ctx's error — the sweep never
// wedges on a dead operator console.
func TestSweepCancellation(t *testing.T) {
	d, reg := oneShard(t, 8, tinyFactory)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := d.Sweep(ctx, reg, fleet.SweepConfig{Concurrency: 2}, nil)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if len(rep.Unreachable) != reg.Size() {
		t.Fatalf("unreachable=%v healthy=%v failed=%v", rep.Unreachable, rep.Healthy, rep.Failed)
	}
	for _, r := range rep.Results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("device %d: error %v, want context.Canceled", r.DeviceID, r.Err)
		}
	}
}

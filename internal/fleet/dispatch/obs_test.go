package dispatch

import (
	"testing"

	"sacha/internal/channel"
	"sacha/internal/core"
	"sacha/internal/fleet"
	"sacha/internal/obs"
	"sacha/internal/prover"
	"sacha/internal/verifier"
)

// TestPerClassHealthPartition sweeps a two-class fleet with one tampered
// member and checks Report.PerClass splits the verdicts by device class
// while the flat partition stays intact.
func TestPerClassHealthPartition(t *testing.T) {
	d, reg := oneShard(t, 6, mixedFactory)
	const bad = 3 // odd → TinyLX class
	sys := mustSystem(t, reg, bad)
	badClass := sys.ClassKey()
	rep := mustSweep(t, d, reg, fleet.SweepConfig{Concurrency: 3}, func(id uint64) core.AttestOptions {
		if id != bad {
			return core.AttestOptions{}
		}
		return core.AttestOptions{TamperDevice: func(d *prover.Device) {
			d.Fabric.Mem.Frame(sys.DynFrames()[0])[1] ^= 4
		}}
	})
	if len(rep.Healthy) != 5 || len(rep.Compromised) != 1 {
		t.Fatalf("healthy=%v compromised=%v", rep.Healthy, rep.Compromised)
	}
	if len(rep.PerClass) != 2 {
		t.Fatalf("PerClass has %d classes, want 2: %v", len(rep.PerClass), rep.PerClass)
	}
	var totalHealthy, totalCompromised int
	for _, ch := range rep.PerClass {
		totalHealthy += ch.Healthy
		totalCompromised += ch.Compromised
	}
	if totalHealthy != 5 || totalCompromised != 1 {
		t.Errorf("per-class totals healthy=%d compromised=%d, want 5/1: %v",
			totalHealthy, totalCompromised, rep.PerClass)
	}
	if got := rep.PerClass[badClass]; got.Compromised != 1 {
		t.Errorf("class %q should carry the compromised member: %+v", badClass, got)
	}
	for _, r := range rep.Results {
		if r.Class == "" {
			t.Errorf("device %d result missing its class", r.DeviceID)
		}
	}
}

// TestSweepRollsUpTransportPressure injects a lossy link on every
// member and checks the per-device Retries/TransportFaults land in the
// sweep-level rollup.
func TestSweepRollsUpTransportPressure(t *testing.T) {
	d, reg := oneShard(t, 4, tinyFactory)
	rep := mustSweep(t, d, reg, fleet.SweepConfig{Concurrency: 2}, func(id uint64) core.AttestOptions {
		retry := sweepRetry()
		retry.MaxRetries = 10 // generous budget: the point is the rollup, not the loss rate
		return core.AttestOptions{
			Opts: verifier.Options{Retry: retry},
			WrapVerifierChannel: func(ep channel.Endpoint) channel.Endpoint {
				return channel.NewFault(ep, channel.FaultConfig{DropProb: 0.02, Seed: int64(id)})
			},
		}
	})
	if len(rep.Healthy) != 4 {
		t.Fatalf("healthy=%d (compromised=%v unreachable=%v failed=%v)",
			len(rep.Healthy), rep.Compromised, rep.Unreachable, rep.Failed)
	}
	var retries, faults int
	for _, r := range rep.Results {
		if r.Report != nil {
			retries += r.Report.Retries
			faults += r.Report.TransportFaults
		}
	}
	if retries == 0 {
		t.Fatal("lossy sweep produced zero retries — fault injection inert")
	}
	if rep.Retries != retries || rep.TransportFaults != faults {
		t.Errorf("rollup retries=%d faults=%d, per-device sums %d/%d",
			rep.Retries, rep.TransportFaults, retries, faults)
	}
}

// TestSweepFeedsTracker attaches an obs.SweepTracker and checks the
// /debug/sweep snapshot agrees with the report.
func TestSweepFeedsTracker(t *testing.T) {
	d, reg := oneShard(t, 5, tinyFactory)
	tracker := obs.NewSweepTracker()
	rep := mustSweep(t, d, reg, fleet.SweepConfig{Concurrency: 2, Tracker: tracker}, nil)
	snap := tracker.Snapshot()
	if snap.Total != 5 || snap.Completed != 5 || snap.InFlight != 0 {
		t.Fatalf("snapshot total=%d completed=%d inflight=%d, want 5/5/0",
			snap.Total, snap.Completed, snap.InFlight)
	}
	if snap.Verdicts[obs.VerdictHealthy] != len(rep.Healthy) {
		t.Errorf("snapshot healthy=%d, report healthy=%d",
			snap.Verdicts[obs.VerdictHealthy], len(rep.Healthy))
	}
	for _, row := range snap.Targets {
		if row.State != obs.StateDone || row.Class == "" || row.ElapsedNS <= 0 {
			t.Errorf("target row not fully populated: %+v", row)
		}
	}
}

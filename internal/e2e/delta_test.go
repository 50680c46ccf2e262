// End-to-end delta attestation: the fleet-level behaviours the unit and
// differential suites cannot see — a device whose configuration drifts
// BETWEEN sweeps while the trust ledger still calls it warm, and the
// interplay with the on-device scrubber that repairs SEUs before the
// next sweep arrives. The invariant under test is the §13 admissibility
// rule's enforcement: a delta sweep may skip frames only when the scan
// proves them golden; everything else is a flagged full overwrite,
// never a silent skip.
package e2e

import (
	"context"
	"math/rand"
	"testing"

	"sacha/internal/core"
	"sacha/internal/device"
	"sacha/internal/fleet"
	"sacha/internal/fleet/dispatch"
	"sacha/internal/fleet/registry"
	"sacha/internal/netlist"
	"sacha/internal/scrub"
	"sacha/internal/verifier"
)

// deltaFleet provisions a small TinyLX fleet plus the delta sweep
// configuration (shared plans, compressed transport, fresh trust
// ledger) and a helper that pins a distinct nonce per sweep.
func deltaFleet(t *testing.T, size int) (*registry.Static, *fleet.SweepConfig) {
	t.Helper()
	f, err := registry.New(size, func(id uint64) (*core.System, error) {
		return core.NewSystem(core.Config{
			Geo:        device.TinyLX(),
			App:        netlist.Blinker(8),
			DeviceID:   id,
			BuildID:    rigBuildID,
			LabLatency: -1,
			Seed:       int64(id)*13 + 1,
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := &fleet.SweepConfig{
		Concurrency: 4,
		Delta:       true,
		Compress:    true,
		Trust:       registry.NewTrustLedger(),
	}
	return f, cfg
}

// sweepOnce runs one pinned-nonce sweep and requires every device healthy
// unless the caller inspects the report itself.
func sweepOnce(t *testing.T, f *registry.Static, cfg *fleet.SweepConfig, nonce uint64) *fleet.Report {
	t.Helper()
	cfg.Nonce = &nonce
	rep, err := dispatch.New(dispatch.Config{Shards: 1}).Sweep(context.Background(), f, *cfg, nil)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	return rep
}

// nonNonceDynFrame returns a dynamic frame of the system's class that is
// NOT in the delta rewrite set — drift there must force the fallback.
func nonNonceDynFrame(t *testing.T, sys *core.System) int {
	t.Helper()
	plan, err := sys.PatchablePlan(verifier.Options{Delta: true})
	if err != nil {
		t.Fatal(err)
	}
	inSet := map[int]bool{}
	for _, fr := range plan.DeltaRewriteFrames() {
		inSet[fr] = true
	}
	for _, fr := range sys.DynFrames() {
		if !inSet[fr] {
			return fr
		}
	}
	t.Fatal("no non-nonce dynamic frame")
	return -1
}

// TestDeltaTamperedBetweenSweepsIsNeverSkipped pins the "never silently
// skip" property end to end: a device whose configuration is altered
// between sweeps — while the ledger still calls it warm — must be
// caught by the delta scan, attested via the flagged full overwrite
// (repairing it), and demoted so the following sweep starts cold.
func TestDeltaTamperedBetweenSweepsIsNeverSkipped(t *testing.T) {
	const size, victim = 6, uint64(2)
	f, cfg := deltaFleet(t, size)

	rep1 := sweepOnce(t, f, cfg, 0xE2E_0001)
	if len(rep1.Healthy) != size || rep1.DeltaFallbacks != size || rep1.DeltaApplied != 0 {
		t.Fatalf("cold sweep: healthy=%d applied=%d fallbacks=%d", len(rep1.Healthy), rep1.DeltaApplied, rep1.DeltaFallbacks)
	}

	// Between sweeps: tamper one configuration bit outside the nonce
	// rewrite set of the (now warm) victim.
	sys, _ := f.System(victim)
	target := nonNonceDynFrame(t, sys)
	sys.Device.Fabric.Mem.Frame(target)[4] ^= 1 << 3

	rep2 := sweepOnce(t, f, cfg, 0xE2E_0002)
	if len(rep2.Healthy) != size {
		t.Fatalf("tampered device not repaired by the fallback: healthy=%v", rep2.Healthy)
	}
	if rep2.DeltaApplied != size-1 || rep2.DeltaFallbacks != 1 {
		t.Fatalf("warm sweep: applied=%d fallbacks=%d, want %d/1", rep2.DeltaApplied, rep2.DeltaFallbacks, size-1)
	}
	if len(rep2.DeltaUnexpected) != 1 || rep2.DeltaUnexpected[0] != victim {
		t.Fatalf("DeltaUnexpected=%v, want exactly device %d", rep2.DeltaUnexpected, victim)
	}
	var vr fleet.DeviceResult
	for _, r := range rep2.Results {
		if r.DeviceID == victim {
			vr = r
		}
	}
	if vr.Report.Delta.Fallback != "mismatch" {
		t.Fatalf("victim fallback %q, want \"mismatch\"", vr.Report.Delta.Fallback)
	}
	found := false
	for _, fr := range vr.Report.Delta.Unexpected {
		if fr == target {
			found = true
		}
	}
	if !found {
		t.Fatalf("tampered frame %d not in the victim's drift list %v", target, vr.Report.Delta.Unexpected)
	}
	if vr.Report.FramesConfigured != len(sys.DynFrames()) {
		t.Fatalf("victim got %d frames configured, want the full %d-frame overwrite — a partial write here would be a silent skip",
			vr.Report.FramesConfigured, len(sys.DynFrames()))
	}

	// The drift demoted the victim: the next sweep must start it cold
	// even though it just attested healthy.
	rep3 := sweepOnce(t, f, cfg, 0xE2E_0003)
	for _, r := range rep3.Results {
		if r.DeviceID != victim {
			continue
		}
		if r.Report.Delta.Fallback != "cold" {
			t.Fatalf("demoted victim fallback %q in the next sweep, want \"cold\"", r.Report.Delta.Fallback)
		}
	}
	if rep3.DeltaApplied != size-1 || rep3.DeltaFallbacks != 1 {
		t.Fatalf("post-demotion sweep: applied=%d fallbacks=%d, want %d/1", rep3.DeltaApplied, rep3.DeltaFallbacks, size-1)
	}
}

// TestDeltaAfterScrubRepairRewritesMinimalSet is the intended steady
// state of the paper's deployment story: SEUs strike between sweeps,
// the on-device scrubber repairs them against its golden image, and the
// next delta sweep — finding the scan clean — rewrites exactly the
// nonce-register frames and nothing else.
func TestDeltaAfterScrubRepairRewritesMinimalSet(t *testing.T) {
	const size, victim = 4, uint64(1)
	const nonce1 = uint64(0xE2E_1001)
	f, cfg := deltaFleet(t, size)

	rep1 := sweepOnce(t, f, cfg, nonce1)
	if len(rep1.Healthy) != size {
		t.Fatalf("cold sweep unhealthy: %v", rep1.Healthy)
	}

	// SEUs strike the victim; its scrubber repairs them against the
	// golden image of the configuration it holds (nonce1's).
	sys, _ := f.System(victim)
	golden, err := sys.Golden(nonce1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	if flips := scrub.InjectSEUs(sys.Device.Fabric, rng, 8); len(flips) != 8 {
		t.Fatalf("injected %d SEUs, want 8", len(flips))
	}
	sc := scrub.New(sys.Device.Fabric, golden)
	flips, err := sc.ScrubOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(flips) == 0 {
		t.Fatal("scrubber found none of the injected upsets")
	}

	rep2 := sweepOnce(t, f, cfg, 0xE2E_1002)
	if len(rep2.Healthy) != size || rep2.DeltaApplied != size || rep2.DeltaFallbacks != 0 {
		t.Fatalf("post-scrub sweep: healthy=%d applied=%d fallbacks=%d, want all delta",
			len(rep2.Healthy), rep2.DeltaApplied, rep2.DeltaFallbacks)
	}
	if len(rep2.DeltaUnexpected) != 0 {
		t.Fatalf("scrub-repaired fleet still drifted: %v", rep2.DeltaUnexpected)
	}
	plan, err := sys.PatchablePlan(verifier.Options{Delta: true})
	if err != nil {
		t.Fatal(err)
	}
	minimal := len(plan.DeltaRewriteFrames())
	for _, r := range rep2.Results {
		if r.DeviceID != victim {
			continue
		}
		if r.Report.Delta.FramesRewritten != minimal {
			t.Fatalf("victim rewrote %d frames after scrub repair, want the minimal nonce set of %d",
				r.Report.Delta.FramesRewritten, minimal)
		}
		if r.Report.Delta.FramesSkipped != len(sys.DynFrames())-minimal {
			t.Fatalf("victim skipped %d frames, want %d", r.Report.Delta.FramesSkipped, len(sys.DynFrames())-minimal)
		}
	}
}

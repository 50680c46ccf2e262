package core

import (
	"math/rand"
	"slices"
	"testing"

	"sacha/internal/device"
	"sacha/internal/netlist"
	"sacha/internal/verifier"
)

// TestDenseDriftOverEthernetFallsBack: a warm device whose dynamic
// partition drifted into incompressible content must take the delta
// scan's "mismatch" fallback and be repaired by the full overwrite on
// the Ethernet lab link. A scan reply's size must not depend on what
// the probed frames hold: sixteen random frames do not compress into
// one Ethernet payload, and the probe that cannot prove them clean
// counts them drifted instead of failing the link.
func TestDenseDriftOverEthernetFallsBack(t *testing.T) {
	sys, err := NewSystem(Config{
		Geo:        device.TinyLX(),
		App:        netlist.Blinker(8),
		LabLatency: -1,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := verifier.Options{Compress: true, Delta: true}
	if rep, err := sys.Attest(AttestOptions{Opts: opts}); err != nil || !rep.Accepted {
		t.Fatalf("warm-up session: %v", err)
	}
	plan, err := sys.PatchablePlan(opts)
	if err != nil {
		t.Fatal(err)
	}
	rewrite := plan.DeltaRewriteFrames()
	rng := rand.New(rand.NewSource(16))
	var drifted []int
	for _, f := range sys.DynFrames() {
		if len(drifted) == 16 {
			break
		}
		if slices.Contains(rewrite, f) {
			continue
		}
		for w := range sys.Device.Fabric.Mem.Frame(f) {
			sys.Device.Fabric.Mem.Frame(f)[w] = rng.Uint32()
		}
		drifted = append(drifted, f)
	}

	opts.DeltaWarm = true
	rep, err := sys.Attest(AttestOptions{Opts: opts})
	if err != nil {
		t.Fatalf("drifted session: %v", err)
	}
	if rep.Delta.Applied || rep.Delta.Fallback != "mismatch" {
		t.Fatalf("delta applied=%v fallback=%q, want the mismatch fallback", rep.Delta.Applied, rep.Delta.Fallback)
	}
	for _, f := range drifted {
		if !slices.Contains(rep.Delta.Unexpected, f) {
			t.Fatalf("drifted frame %d not reported: Unexpected=%v", f, rep.Delta.Unexpected)
		}
	}
	if !rep.Accepted || rep.FramesConfigured != len(sys.DynFrames()) {
		t.Fatalf("full overwrite: accepted=%v configured=%d of %d", rep.Accepted, rep.FramesConfigured, len(sys.DynFrames()))
	}
}

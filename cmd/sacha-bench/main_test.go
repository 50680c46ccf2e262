package main

import (
	"testing"
	"time"

	"sacha/internal/attestation"
	"sacha/internal/core"
	"sacha/internal/device"
	"sacha/internal/netlist"
	"sacha/internal/prover"
)

// TestDeltaWarmUpAnswersItsOwnChallenge: the warm-healthy scenario's
// warm-up and measured delta session answer different challenges, so
// they end in different MACs, and the measured session still applies
// the delta.
func TestDeltaWarmUpAnswersItsOwnChallenge(t *testing.T) {
	geo := device.TinyLX()
	const buildID = 0xD00D
	golden, dyn, err := core.BuildGolden(geo, netlist.Blinker(8), buildID, 0xCAFEBABE)
	if err != nil {
		t.Fatal(err)
	}
	dplan, err := attestation.NewPlan(attestation.Spec{Geo: geo, Golden: golden, DynFrames: dyn,
		Delta: true, Compress: true, PatchableNonce: true})
	if err != nil {
		t.Fatal(err)
	}
	key := prover.RegisterKey{3, 1, 4, 1, 5}
	warm, rep, _ := deltaSession(geo, dplan, dyn, key, buildID, 4, 100*time.Microsecond, "warm-healthy")
	if !warm.Accepted || !rep.Accepted || rep.Delta.Fallback != "" || rep.Delta.FramesRewritten == 0 {
		t.Fatalf("warm-up accepted %v; delta accepted %v, fallback %q, %d frames rewritten",
			warm.Accepted, rep.Accepted, rep.Delta.Fallback, rep.Delta.FramesRewritten)
	}
	if warm.HVrf == rep.HVrf {
		t.Fatalf("warm-up and delta session both end in H_Vrf %x", rep.HVrf)
	}
}

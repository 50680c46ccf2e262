package main

import (
	"testing"
	"time"

	"sacha/internal/attestation"
	"sacha/internal/core"
	"sacha/internal/device"
	"sacha/internal/fabric"
	"sacha/internal/netlist"
	"sacha/internal/obs"
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
		Delta: true, Compress: true})
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

// TestMeasurePlanTimesPatchedHits: the plan section reports medians of
// planSamples samples, and every cache-hit sample is a real WithNonce
// patch — a hit at the cached nonce would time the lookup alone.
func TestMeasurePlanTimesPatchedHits(t *testing.T) {
	geo, app := device.TinyLX(), netlist.Blinker(8)
	const buildID, nonce = 0xD00D, 0xCAFEBABE
	golden, dyn, err := core.BuildGolden(geo, app, buildID, nonce)
	if err != nil {
		t.Fatal(err)
	}
	goldenAt := func(n uint64) (*fabric.Image, error) {
		im, _, err := core.BuildGolden(geo, app, buildID, n)
		return im, err
	}
	patches := obs.Default().Counter("sacha_plan_patches_total", "")
	before := patches.Value()
	res, plan, err := measurePlan(attestation.Spec{Geo: geo, Golden: golden, DynFrames: dyn}, goldenAt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != planSamples || res.ColdBuildNS <= 0 || res.CacheHitNS <= 0 {
		t.Fatalf("plan result %+v", res)
	}
	if plan.Nonce() != nonce {
		t.Fatalf("measured plan encodes nonce %#x, want %#x", plan.Nonce(), nonce)
	}
	if got := patches.Value() - before; got != planSamples {
		t.Fatalf("%d cache-hit samples patched %d times, want one patch each", planSamples, got)
	}
}

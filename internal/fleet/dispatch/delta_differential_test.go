package dispatch_test

import (
	"context"
	"testing"
	"time"

	"sacha/internal/attestation"
	"sacha/internal/channel"
	"sacha/internal/core"
	"sacha/internal/fleet"
	"sacha/internal/fleet/dispatch"
	"sacha/internal/fleet/registry"
	"sacha/internal/prover"
	"sacha/internal/verifier"
)

// deltaDiffOpts builds the per-device options of the delta differential:
// the designated tampered members get the deterministic configuration
// flip (armed between configuration and readback), and the designated
// faulted members speak over a seeded lossy link with the reliable
// transport on. Both fleets get the same seeds, so the two sides see
// the same adversity.
func deltaDiffOpts(lookup func(uint64) (*core.System, bool), tampered, faulted map[uint64]bool) func(uint64) core.AttestOptions {
	return func(id uint64) core.AttestOptions {
		var o core.AttestOptions
		if faulted[id] {
			o.Opts.Retry = attestation.RetryPolicy{Timeout: 50 * time.Millisecond, MaxRetries: 8}
			o.WrapVerifierChannel = func(ep channel.Endpoint) channel.Endpoint {
				return channel.NewFault(ep, channel.FaultConfig{Seed: int64(id)*131 + 7, DropProb: 0.03})
			}
		}
		if tampered[id] {
			sys, _ := lookup(id)
			o.TamperDevice = func(d *prover.Device) {
				d.Fabric.Mem.Frame(sys.DynFrames()[3])[5] ^= 2
			}
		}
		return o
	}
}

// TestDeltaDifferentialMatchesFullOverwrite is the tentpole equivalence
// at fleet scale: over a mixed-geometry fleet, a delta+compress sweep
// pair (cold then warm) must produce verdicts, nonces AND per-device
// H_Vrf bit-identical to plain full-overwrite sweeps on a twin fleet —
// under all three freshness policies, with a tampered member, lossy
// links on two members, and an SEU injected between the sweeps. The
// delta accounting is pinned alongside: sweep 1 is all cold fallbacks,
// sweep 2 applies delta everywhere except the demoted tampered device
// and the drifted device (which is flagged, repaired, and never
// silently skipped) — and a RotateKey sweep 2 applies none, because the
// rotation advanced every class out from under the recorded warmth.
func TestDeltaDifferentialMatchesFullOverwrite(t *testing.T) {
	const size = 16
	tampered := map[uint64]bool{7: true}
	faulted := map[uint64]bool{3: true, 9: true}
	const seuDevice = uint64(5)

	policies := []attestation.FreshnessPolicy{
		attestation.PerSweep, attestation.PerDevice, attestation.RotateKey,
	}
	for _, policy := range policies {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			regDelta, err := registry.New(size, diffFactory)
			if err != nil {
				t.Fatal(err)
			}
			regPlain, err := registry.New(size, diffFactory)
			if err != nil {
				t.Fatal(err)
			}
			cfgDelta := fleet.SweepConfig{
				Concurrency: 8,
				Freshness:   policy,
				Delta:       true,
				Compress:    true,
				Trust:       registry.NewTrustLedger(),
			}
			cfgPlain := fleet.SweepConfig{
				Concurrency: 8,
				Freshness:   policy,
			}
			pin := func(cfgs []*fleet.SweepConfig, v uint64) {
				for _, c := range cfgs {
					if policy == attestation.PerSweep {
						n := v
						c.Nonce, c.NonceSeed = &n, nil
					} else {
						s := v
						c.Nonce, c.NonceSeed = nil, &s
					}
				}
			}
			both := []*fleet.SweepConfig{&cfgDelta, &cfgPlain}
			dDelta := dispatch.New(dispatch.Config{Shards: 2})
			dPlain := dispatch.New(dispatch.Config{Shards: 2})
			optsDelta := deltaDiffOpts(regDelta.System, tampered, faulted)
			optsPlain := deltaDiffOpts(regPlain.System, tampered, faulted)

			compare := func(label string, delta, plain *fleet.Report) {
				t.Helper()
				if len(delta.Results) != size || len(plain.Results) != size {
					t.Fatalf("%s: result counts %d / %d", label, len(delta.Results), len(plain.Results))
				}
				for i := range plain.Results {
					p, d := plain.Results[i], delta.Results[i]
					if p.DeviceID != d.DeviceID {
						t.Fatalf("%s: result order diverged at %d", label, i)
					}
					if p.Verdict() != d.Verdict() {
						t.Fatalf("%s: device %d verdict diverged: plain=%s delta=%s (errs %v / %v)",
							label, p.DeviceID, p.Verdict(), d.Verdict(), p.Err, d.Err)
					}
					if p.Nonce != d.Nonce {
						t.Fatalf("%s: device %d nonce diverged: %#x vs %#x", label, p.DeviceID, p.Nonce, d.Nonce)
					}
					if (p.Report == nil) != (d.Report == nil) {
						t.Fatalf("%s: device %d report presence diverged", label, p.DeviceID)
					}
					if p.Report != nil && p.Report.HVrf != d.Report.HVrf {
						t.Fatalf("%s: device %d H_Vrf diverged:\n  plain: %x\n  delta: %x",
							label, p.DeviceID, p.Report.HVrf, d.Report.HVrf)
					}
				}
				if plain.DeltaApplied != 0 || plain.DeltaFallbacks != 0 || len(plain.DeltaUnexpected) != 0 {
					t.Fatalf("%s: plain sweep reported delta activity: %+v", label, plain)
				}
			}

			// Sweep 1: every delta session is cold (empty ledger) and must
			// fall back to the full overwrite — never skip.
			pin(both, 0x5EED_0001)
			rep1d, err := dDelta.Sweep(context.Background(), regDelta, cfgDelta, optsDelta)
			if err != nil {
				t.Fatalf("delta sweep 1: %v", err)
			}
			rep1p, err := dPlain.Sweep(context.Background(), regPlain, cfgPlain, optsPlain)
			if err != nil {
				t.Fatalf("plain sweep 1: %v", err)
			}
			compare("sweep1", rep1d, rep1p)
			if rep1d.DeltaApplied != 0 || rep1d.DeltaFallbacks != size {
				t.Fatalf("cold sweep: applied=%d fallbacks=%d, want 0/%d", rep1d.DeltaApplied, rep1d.DeltaFallbacks, size)
			}

			// Between sweeps: the same SEU on both twins — one bit in a
			// dynamic frame OUTSIDE the nonce rewrite set of the victim.
			sysD, _ := regDelta.System(seuDevice)
			sysP, _ := regPlain.System(seuDevice)
			dp, err := sysD.PatchablePlan(verifier.Options{Delta: true})
			if err != nil {
				t.Fatal(err)
			}
			nonceFrames := map[int]bool{}
			for _, f := range dp.DeltaRewriteFrames() {
				nonceFrames[f] = true
			}
			target := -1
			for _, f := range sysD.DynFrames() {
				if !nonceFrames[f] {
					target = f
					break
				}
			}
			if target < 0 {
				t.Fatal("no non-nonce dynamic frame")
			}
			sysD.Device.Fabric.Mem.Frame(target)[2] ^= 1 << 9
			sysP.Device.Fabric.Mem.Frame(target)[2] ^= 1 << 9

			// Sweep 2: warm. PerSweep/PerDevice apply delta fleet-wide
			// except the demoted tampered member (cold) and the SEU victim
			// (scan flags the drift, falls back, repairs). RotateKey rotates
			// again first, advancing every class: all cold, no scans.
			pin(both, 0x5EED_0002)
			rep2d, err := dDelta.Sweep(context.Background(), regDelta, cfgDelta, optsDelta)
			if err != nil {
				t.Fatalf("delta sweep 2: %v", err)
			}
			rep2p, err := dPlain.Sweep(context.Background(), regPlain, cfgPlain, optsPlain)
			if err != nil {
				t.Fatalf("plain sweep 2: %v", err)
			}
			compare("sweep2", rep2d, rep2p)

			resultFor := func(rep *fleet.Report, id uint64) fleet.DeviceResult {
				for _, r := range rep.Results {
					if r.DeviceID == id {
						return r
					}
				}
				t.Fatalf("device %d missing from results", id)
				return fleet.DeviceResult{}
			}
			seu := resultFor(rep2d, seuDevice)
			if !seu.Healthy() {
				t.Fatalf("SEU victim not repaired: %v / %+v", seu.Err, seu.Report)
			}
			if policy == attestation.RotateKey {
				if rep2d.DeltaApplied != 0 || rep2d.DeltaFallbacks != size {
					t.Fatalf("rotated sweep: applied=%d fallbacks=%d, want 0/%d — rotation must cold every class",
						rep2d.DeltaApplied, rep2d.DeltaFallbacks, size)
				}
				if len(rep2d.DeltaUnexpected) != 0 {
					t.Fatalf("rotated sweep ran scans: unexpected=%v", rep2d.DeltaUnexpected)
				}
				return
			}
			if want := size - 2; rep2d.DeltaApplied != want || rep2d.DeltaFallbacks != 2 {
				t.Fatalf("warm sweep: applied=%d fallbacks=%d, want %d/2", rep2d.DeltaApplied, rep2d.DeltaFallbacks, want)
			}
			if len(rep2d.DeltaUnexpected) != 1 || rep2d.DeltaUnexpected[0] != seuDevice {
				t.Fatalf("DeltaUnexpected=%v, want exactly the SEU victim %d", rep2d.DeltaUnexpected, seuDevice)
			}
			if seu.Report.Delta.Fallback != "mismatch" {
				t.Fatalf("SEU victim fallback %q, want \"mismatch\"", seu.Report.Delta.Fallback)
			}
			tamperedRes := resultFor(rep2d, 7)
			if tamperedRes.Report == nil || tamperedRes.Report.Delta.Fallback != "cold" {
				t.Fatalf("tampered device not demoted to cold: %+v", tamperedRes.Report)
			}
			// Spot-check one applied device: the rewrite set stayed small.
			applied := resultFor(rep2d, 3)
			if !applied.Report.Delta.Applied {
				t.Fatalf("faulted-but-healthy device did not apply delta: %+v", applied.Report.Delta)
			}
			if applied.Report.Delta.FramesRewritten == 0 ||
				applied.Report.Delta.FramesRewritten >= applied.Report.Delta.FramesScanned {
				t.Fatalf("rewrite set not small: %+v", applied.Report.Delta)
			}
		})
	}
}

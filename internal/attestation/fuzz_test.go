package attestation_test

import (
	"strings"
	"sync"
	"testing"

	"sacha/internal/attestation"
	"sacha/internal/core"
	"sacha/internal/device"
	"sacha/internal/netlist"
)

// fuzzBase lazily builds one shared patchable TinyLX plan plus the cold
// fingerprints the fuzzer compares against. Building it once keeps each
// fuzz iteration at patch cost, not fabric-build cost.
var fuzzBase struct {
	once sync.Once
	plan *attestation.Plan
	err  error
}

func fuzzPlan(t testing.TB) *attestation.Plan {
	t.Helper()
	fuzzBase.once.Do(func() {
		golden, dyn, err := core.BuildGolden(device.TinyLX(), netlist.Blinker(8), 0xD00D, 0x5EED)
		if err != nil {
			fuzzBase.err = err
			return
		}
		fuzzBase.plan, fuzzBase.err = attestation.NewPlan(attestation.Spec{
			Geo:            device.TinyLX(),
			Golden:         golden,
			DynFrames:      dyn,
			ConfigBatch:    3,
			PatchableNonce: true,
			NonceBits:      core.NonceBits,
		})
	})
	if fuzzBase.err != nil {
		t.Fatal(fuzzBase.err)
	}
	return fuzzBase.plan
}

// FuzzFreshnessPolicy throws hostile inputs at the freshness policy's
// two parsing/patching surfaces:
//
//   - ParseFreshnessPolicy must never panic, and any accepted string
//     must round-trip (parse(policy.String()) == policy) and be Valid.
//   - Plan.WithNonce must stay path-independent and idempotent for ANY
//     nonce — zero, all-ones, repeated, whatever the fuzzer finds —
//     because a fleet sweep patches a shared plan with attacker-observable
//     nonces and any drift between patch orders would fork H_Vrf.
func FuzzFreshnessPolicy(f *testing.F) {
	f.Add("per-sweep", uint64(0), uint64(0))
	f.Add("per-device", uint64(0), ^uint64(0))
	f.Add("rotate-key", uint64(0x5EED), uint64(0x5EED))
	f.Add("PerDevice", ^uint64(0), uint64(1))
	f.Add(" bogus ", uint64(42), uint64(42))
	f.Fuzz(func(t *testing.T, raw string, a, b uint64) {
		pol, err := attestation.ParseFreshnessPolicy(raw)
		if err == nil {
			if !pol.Valid() {
				t.Fatalf("ParseFreshnessPolicy(%q) accepted invalid policy %d", raw, int(pol))
			}
			round, err := attestation.ParseFreshnessPolicy(pol.String())
			if err != nil || round != pol {
				t.Fatalf("%q → %v does not round-trip: %v %v", raw, pol, round, err)
			}
		} else if strings.TrimSpace(strings.ToLower(raw)) == "per-sweep" {
			t.Fatalf("canonical spelling rejected: %v", err)
		}

		base := fuzzPlan(t)
		pa, err := base.WithNonce(a)
		if err != nil {
			t.Fatalf("WithNonce(%#x): %v", a, err)
		}
		// Idempotence: re-patching to the same nonce is the same plan.
		again, err := pa.WithNonce(a)
		if err != nil || again.Fingerprint() != pa.Fingerprint() {
			t.Fatalf("WithNonce(%#x) not idempotent: %v", a, err)
		}
		// Path independence: base→a→b must equal base→b.
		chained, err := pa.WithNonce(b)
		if err != nil {
			t.Fatalf("WithNonce(%#x) after %#x: %v", b, a, err)
		}
		direct, err := base.WithNonce(b)
		if err != nil {
			t.Fatalf("WithNonce(%#x): %v", b, err)
		}
		if chained.Fingerprint() != direct.Fingerprint() {
			t.Fatalf("patch path dependence: base→%#x→%#x != base→%#x", a, b, b)
		}
		if n, ok := direct.Nonce(); !ok || n != b {
			t.Fatalf("patched plan reports nonce %#x/%v, want %#x", n, ok, b)
		}
		// Distinct nonces must yield distinct artifacts — a collision
		// would mean the patch silently ignored nonce bits.
		if a != b && chained.Fingerprint() == pa.Fingerprint() {
			t.Fatalf("plans for nonces %#x and %#x are identical", a, b)
		}
	})
}

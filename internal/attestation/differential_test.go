package attestation_test

import (
	"math/rand"
	"sync"
	"testing"

	"sacha/internal/attestation"
	"sacha/internal/core"
	"sacha/internal/device"
	"sacha/internal/netlist"
)

// diffSpec builds the golden image for one nonce and wraps it in a Spec
// with the given plan-shaping options. patchable toggles the nonce-patch
// machinery; everything else is identical, so a patched plan and a cold
// plain build at the same nonce must be bit-for-bit interchangeable.
func diffSpec(t testing.TB, geo *device.Geometry, nonce uint64, offset, batch int, steps uint32, patchable bool) attestation.Spec {
	t.Helper()
	golden, dyn, err := core.BuildGolden(geo, netlist.Blinker(8), 0xD00D, nonce)
	if err != nil {
		t.Fatal(err)
	}
	return attestation.Spec{
		Geo:            geo,
		Golden:         golden,
		DynFrames:      dyn,
		Offset:         offset,
		ConfigBatch:    batch,
		AppSteps:       steps,
		PatchableNonce: patchable,
	}
}

// TestDifferentialPatchedEqualsColdBuild is the tentpole's differential
// proof: for randomized geometries, plan options and nonces, patching a
// plan to nonce n (Plan.WithNonce) produces exactly the artifacts a cold
// NewPlan would build from a golden image placed at n — same wire bytes,
// same readback order, same comparison frames — as witnessed by the
// plan fingerprint. Covers plain (masked) and CAPTURE (predicted) modes
// and batch boundaries that mix application and nonce frames in one
// configuration packet.
func TestDifferentialPatchedEqualsColdBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := []struct {
		geo    *device.Geometry
		offset int
		batch  int
		steps  uint32
	}{
		{device.TinyLX(), 0, 1, 0},
		{device.TinyLX(), 7, 3, 0},   // batch straddles the app/nonce frame boundary
		{device.TinyLX(), 13, 4, 0},  // max batch
		{device.TinyLX(), 0, 1, 5},   // CAPTURE: predicted frames, no mask
		{device.TinyLX(), 3, 4, 2},   // CAPTURE + batching
		{device.SmallLX(), 11, 2, 0}, // second geometry
	}
	for _, tc := range cases {
		baseNonce := rng.Uint64()
		base, err := attestation.NewPlan(diffSpec(t, tc.geo, baseNonce, tc.offset, tc.batch, tc.steps, true))
		if err != nil {
			t.Fatalf("%s offset=%d batch=%d steps=%d: base build: %v", tc.geo.Name, tc.offset, tc.batch, tc.steps, err)
		}
		for trial := 0; trial < 3; trial++ {
			n := rng.Uint64()
			if trial == 0 {
				n = baseNonce // identity patch must also hold
			}
			patched, err := base.WithNonce(n)
			if err != nil {
				t.Fatalf("WithNonce(%#x): %v", n, err)
			}
			if got, ok := patched.Nonce(); !ok || got != n {
				t.Fatalf("patched plan reports nonce %#x/%v, want %#x", got, ok, n)
			}
			cold, err := attestation.NewPlan(diffSpec(t, tc.geo, n, tc.offset, tc.batch, tc.steps, false))
			if err != nil {
				t.Fatalf("cold build at %#x: %v", n, err)
			}
			if patched.Fingerprint() != cold.Fingerprint() {
				t.Fatalf("%s offset=%d batch=%d steps=%d nonce=%#x: patched plan differs from cold build",
					tc.geo.Name, tc.offset, tc.batch, tc.steps, n)
			}
			// A cold *patchable* build at n must agree too: the patch
			// metadata may not leak into the protocol artifacts.
			coldPatchable, err := attestation.NewPlan(diffSpec(t, tc.geo, n, tc.offset, tc.batch, tc.steps, true))
			if err != nil {
				t.Fatalf("cold patchable build at %#x: %v", n, err)
			}
			if coldPatchable.Fingerprint() != cold.Fingerprint() {
				t.Fatalf("patchable cold build differs from plain cold build at %#x", n)
			}
		}
	}
}

// TestWithNoncePathIndependence: chained patches must be equivalent to a
// single patch from the base — the patch state may not accumulate drift.
func TestWithNoncePathIndependence(t *testing.T) {
	base, err := attestation.NewPlan(diffSpec(t, device.TinyLX(), 0xA11CE, 5, 2, 0, true))
	if err != nil {
		t.Fatal(err)
	}
	hop, err := base.WithNonce(0xBEEF)
	if err != nil {
		t.Fatal(err)
	}
	chained, err := hop.WithNonce(0xFACADE)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := base.WithNonce(0xFACADE)
	if err != nil {
		t.Fatal(err)
	}
	if chained.Fingerprint() != direct.Fingerprint() {
		t.Fatal("base→a→b differs from base→b")
	}
	// And the base itself must be untouched by the patches made from it.
	roundtrip, err := chained.WithNonce(0xA11CE)
	if err != nil {
		t.Fatal(err)
	}
	if roundtrip.Fingerprint() != base.Fingerprint() {
		t.Fatal("round-tripping back to the base nonce does not reproduce the base plan")
	}
}

// TestWithNonceRequiresPatchableSpec: plans built without PatchableNonce
// have their nonce baked into their identity and must refuse to patch.
func TestWithNonceRequiresPatchableSpec(t *testing.T) {
	plain, err := attestation.NewPlan(diffSpec(t, device.TinyLX(), 0xCAFE, 0, 1, 0, false))
	if err != nil {
		t.Fatal(err)
	}
	if plain.NoncePatchable() {
		t.Fatal("plain plan claims to be patchable")
	}
	if _, err := plain.WithNonce(1); err == nil {
		t.Fatal("WithNonce on a non-patchable plan succeeded")
	}
	if _, ok := plain.Nonce(); ok {
		t.Fatal("non-patchable plan reports a nonce")
	}
}

// TestSpecKeyNonceFreedom: under PatchableNonce the cache key must not
// depend on the placed nonce (that is what lets one cached plan serve
// every nonce of a class), while non-patchable keys must keep their
// per-nonce separation, and the two key spaces must never collide.
func TestSpecKeyNonceFreedom(t *testing.T) {
	geo := device.TinyLX()
	pA := attestation.SpecKey(diffSpec(t, geo, 0xAAAA, 0, 1, 0, true))
	pB := attestation.SpecKey(diffSpec(t, geo, 0xBBBB, 0, 1, 0, true))
	if pA != pB {
		t.Fatal("patchable specs that differ only in nonce have different keys")
	}
	nA := attestation.SpecKey(diffSpec(t, geo, 0xAAAA, 0, 1, 0, false))
	nB := attestation.SpecKey(diffSpec(t, geo, 0xBBBB, 0, 1, 0, false))
	if nA == nB {
		t.Fatal("non-patchable specs with different nonces share a key")
	}
	if pA == nA {
		t.Fatal("patchable and non-patchable key spaces collide")
	}
	// Options still separate patchable keys.
	pOff := attestation.SpecKey(diffSpec(t, geo, 0xAAAA, 9, 1, 0, true))
	if pA == pOff {
		t.Fatal("patchable key ignores the readback offset")
	}
}

// TestPlanCachePatchedHitMatchesColdBuild: a cache hit for a patchable
// spec at a *different* nonce than the cached build must come back
// re-nonced — equivalent to a cold build at the requested nonce — while
// still counting as a hit, not a build.
func TestPlanCachePatchedHitMatchesColdBuild(t *testing.T) {
	c := attestation.NewPlanCache(0)
	geo := device.TinyLX()

	first, built, err := c.GetOrBuild(diffSpec(t, geo, 0xAAAA, 0, 2, 0, true))
	if err != nil || !built {
		t.Fatalf("cold get: built=%v err=%v", built, err)
	}
	if n, _ := first.Nonce(); n != 0xAAAA {
		t.Fatalf("cold plan nonce %#x", n)
	}

	second, built, err := c.GetOrBuild(diffSpec(t, geo, 0xBBBB, 0, 2, 0, true))
	if err != nil {
		t.Fatal(err)
	}
	if built {
		t.Fatal("same class at a new nonce rebuilt the plan — nonce leaked into the key")
	}
	if n, _ := second.Nonce(); n != 0xBBBB {
		t.Fatalf("hit plan not re-nonced: %#x", n)
	}
	cold, err := attestation.NewPlan(diffSpec(t, geo, 0xBBBB, 0, 2, 0, false))
	if err != nil {
		t.Fatal(err)
	}
	if second.Fingerprint() != cold.Fingerprint() {
		t.Fatal("patched cache hit differs from a cold build at the requested nonce")
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("stats hits=%d misses=%d, want 1/1", hits, misses)
	}
}

// TestConcurrentWithNonceSharedBase hammers one shared base plan with
// concurrent WithNonce calls (run under -race): patches of an immutable
// plan must neither interfere with each other nor corrupt the base.
func TestConcurrentWithNonceSharedBase(t *testing.T) {
	base, err := attestation.NewPlan(diffSpec(t, device.TinyLX(), 0x5EED, 0, 3, 0, true))
	if err != nil {
		t.Fatal(err)
	}
	nonces := []uint64{1, 0xBEEF, ^uint64(0), 0x5EED, 0x0123_4567_89AB_CDEF}
	want := make(map[uint64][32]byte, len(nonces))
	for _, n := range nonces {
		cold, err := attestation.NewPlan(diffSpec(t, device.TinyLX(), n, 0, 3, 0, false))
		if err != nil {
			t.Fatal(err)
		}
		want[n] = cold.Fingerprint()
	}
	baseFP := base.Fingerprint()

	const workers = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				n := nonces[(w+i)%len(nonces)]
				p, err := base.WithNonce(n)
				if err != nil {
					t.Errorf("WithNonce(%#x): %v", n, err)
					return
				}
				if p.Fingerprint() != want[n] {
					t.Errorf("concurrent patch to %#x drifted from cold build", n)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if base.Fingerprint() != baseFP {
		t.Fatal("concurrent patches mutated the shared base plan")
	}
}

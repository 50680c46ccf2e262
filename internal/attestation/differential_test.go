package attestation_test

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"sacha/internal/attestation"
	"sacha/internal/channel"
	"sacha/internal/core"
	"sacha/internal/device"
	"sacha/internal/netlist"
	"sacha/internal/protocol"
)

// diffSpec builds the golden image for one nonce and wraps it in a Spec
// with the given plan-shaping options, so a plan patched to a nonce and
// a cold build at that nonce must be bit-for-bit interchangeable.
func diffSpec(t testing.TB, geo *device.Geometry, nonce uint64, offset, batch int, steps uint32) attestation.Spec {
	t.Helper()
	golden, dyn, err := core.BuildGolden(geo, netlist.Blinker(8), 0xD00D, nonce)
	if err != nil {
		t.Fatal(err)
	}
	return attestation.Spec{
		Geo:         geo,
		Golden:      golden,
		DynFrames:   dyn,
		Offset:      offset,
		ConfigBatch: batch,
		AppSteps:    steps,
	}
}

// TestDifferentialPatchedEqualsColdBuild is the tentpole's differential
// proof: for randomized geometries, plan options and nonces, patching a
// plan to nonce n (Plan.WithNonce) produces exactly the artifacts a cold
// NewPlan would build from a golden image placed at n — same wire bytes,
// same readback order, same comparison frames — as witnessed by the
// plan fingerprint. Covers plain (masked) and CAPTURE (predicted) modes,
// batch sizes that do and do not divide the base and nonce frame counts,
// and Compress+Delta plans (compressed packets, scan expectations).
func TestDifferentialPatchedEqualsColdBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := []struct {
		geo           *device.Geometry
		offset        int
		batch         int
		steps         uint32
		compressDelta bool
	}{
		{device.TinyLX(), 0, 1, 0, false},
		{device.TinyLX(), 7, 3, 0, false},   // batch leaves a short last packet in base and step
		{device.TinyLX(), 13, 4, 0, false},  // max batch
		{device.TinyLX(), 0, 1, 5, false},   // CAPTURE: predicted frames, no mask
		{device.TinyLX(), 3, 4, 2, false},   // CAPTURE + batching
		{device.SmallLX(), 11, 2, 0, false}, // second geometry
		{device.TinyLX(), 0, 1, 0, true},    // compressed packets + delta scan
		{device.SmallLX(), 5, 4, 0, true},
	}
	spec := func(geo *device.Geometry, nonce uint64, offset, batch int, steps uint32, compressDelta bool) attestation.Spec {
		s := diffSpec(t, geo, nonce, offset, batch, steps)
		s.Compress, s.Delta = compressDelta, compressDelta
		return s
	}
	for _, tc := range cases {
		baseNonce := rng.Uint64()
		base, err := attestation.NewPlan(spec(tc.geo, baseNonce, tc.offset, tc.batch, tc.steps, tc.compressDelta))
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
			if got := patched.Nonce(); got != n {
				t.Fatalf("patched plan reports nonce %#x, want %#x", got, n)
			}
			cold, err := attestation.NewPlan(spec(tc.geo, n, tc.offset, tc.batch, tc.steps, tc.compressDelta))
			if err != nil {
				t.Fatalf("cold build at %#x: %v", n, err)
			}
			if patched.Fingerprint() != cold.Fingerprint() {
				t.Fatalf("%s offset=%d batch=%d steps=%d compress+delta=%v nonce=%#x: patched plan differs from cold build",
					tc.geo.Name, tc.offset, tc.batch, tc.steps, tc.compressDelta, n)
			}
		}
	}
}

// TestWithNoncePathIndependence: chained patches must be equivalent to a
// single patch from the base — the patch state may not accumulate drift.
func TestWithNoncePathIndependence(t *testing.T) {
	base, err := attestation.NewPlan(diffSpec(t, device.TinyLX(), 0xA11CE, 5, 2, 0))
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

// TestSpecKeyNonceFreedom: the cache key must not depend on the placed
// nonce (that is what lets one cached plan serve every nonce of a
// class), while plan-shaping options still separate keys.
func TestSpecKeyNonceFreedom(t *testing.T) {
	geo := device.TinyLX()
	pA := attestation.SpecKey(diffSpec(t, geo, 0xAAAA, 0, 1, 0))
	pB := attestation.SpecKey(diffSpec(t, geo, 0xBBBB, 0, 1, 0))
	if pA != pB {
		t.Fatal("specs that differ only in nonce have different keys")
	}
	pOff := attestation.SpecKey(diffSpec(t, geo, 0xAAAA, 9, 1, 0))
	if pA == pOff {
		t.Fatal("key ignores the readback offset")
	}
}

// TestPlanCachePatchedHitMatchesColdBuild: a cache hit for a spec at a
// *different* nonce than the cached build must come back
// re-nonced — equivalent to a cold build at the requested nonce — while
// still counting as a hit, not a build.
func TestPlanCachePatchedHitMatchesColdBuild(t *testing.T) {
	c := attestation.NewPlanCache(0)
	geo := device.TinyLX()

	first, built, err := c.GetOrBuild(diffSpec(t, geo, 0xAAAA, 0, 2, 0))
	if err != nil || !built {
		t.Fatalf("cold get: built=%v err=%v", built, err)
	}
	if n := first.Nonce(); n != 0xAAAA {
		t.Fatalf("cold plan nonce %#x", n)
	}

	second, built, err := c.GetOrBuild(diffSpec(t, geo, 0xBBBB, 0, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if built {
		t.Fatal("same class at a new nonce rebuilt the plan — nonce leaked into the key")
	}
	if n := second.Nonce(); n != 0xBBBB {
		t.Fatalf("hit plan not re-nonced: %#x", n)
	}
	cold, err := attestation.NewPlan(diffSpec(t, geo, 0xBBBB, 0, 2, 0))
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
	base, err := attestation.NewPlan(diffSpec(t, device.TinyLX(), 0x5EED, 0, 3, 0))
	if err != nil {
		t.Fatal(err)
	}
	nonces := []uint64{1, 0xBEEF, ^uint64(0), 0x5EED, 0x0123_4567_89AB_CDEF}
	want := make(map[uint64][32]byte, len(nonces))
	for _, n := range nonces {
		cold, err := attestation.NewPlan(diffSpec(t, device.TinyLX(), n, 0, 3, 0))
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

// TestDifferentialTransmissionOrderLeavesSameDevice: a plan sends the
// nonce frames last, after every other dynamic frame, while
// Spec.DynFrames may interleave them. The order must not show on the
// device: one configured frame by frame in DynFrames order through its
// handler ends bit-identical — configuration memory and every frame's
// readback — to one configured by a Run of the plan, for plain and
// compressed plans at ConfigBatch 1 and 4.
func TestDifferentialTransmissionOrderLeavesSameDevice(t *testing.T) {
	for _, geo := range []*device.Geometry{device.TinyLX(), device.SmallLX()} {
		golden, dyn, err := core.BuildGolden(geo, netlist.Blinker(8), 0xD00D, 0x0DD5EED)
		if err != nil {
			t.Fatal(err)
		}
		reference := newDevice(t, geo)
		h := reference.Handler()
		for _, f := range dyn {
			wire, err := protocol.Config(f, golden.Frame(f)).Encode()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h(wire); err != nil {
				t.Fatalf("%s: configuring frame %d: %v", geo.Name, f, err)
			}
		}
		for _, compress := range []bool{false, true} {
			for _, batch := range []int{1, 4} {
				plan, err := attestation.NewPlan(attestation.Spec{Geo: geo, Golden: golden, DynFrames: dyn,
					ConfigBatch: batch, Compress: compress})
				if err != nil {
					t.Fatal(err)
				}
				dev := newDevice(t, geo)
				ep := channel.NewInline(dev.Handler(), channel.SimConfig{})
				rep, err := plan.Run(ep, attestation.RunOpts{Key: runKey})
				ep.Close()
				if err != nil || !rep.Accepted || rep.Compressed != compress {
					t.Fatalf("%s compress=%v batch=%d: run %+v, err %v", geo.Name, compress, batch, rep, err)
				}
				for idx := 0; idx < geo.NumFrames(); idx++ {
					if !slices.Equal(dev.Fabric.Mem.Frame(idx), reference.Fabric.Mem.Frame(idx)) {
						t.Fatalf("%s compress=%v batch=%d: frame %d memory differs from DynFrames-order configuration", geo.Name, compress, batch, idx)
					}
					got, err := dev.Fabric.ReadbackFrame(idx)
					if err != nil {
						t.Fatal(err)
					}
					want, err := reference.Fabric.ReadbackFrame(idx)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s compress=%v batch=%d: frame %d reads back differently from DynFrames-order configuration", geo.Name, compress, batch, idx)
					}
				}
			}
		}
	}
}

package attestation_test

import (
	"sync"
	"testing"

	"sacha/internal/attestation"
	"sacha/internal/core"
	"sacha/internal/device"
	"sacha/internal/fabric"
	"sacha/internal/netlist"
)

// cacheSpec builds the Spec for one (nonce, offset) point of the test
// geometry — distinct offsets produce distinct cache keys, distinct
// nonces share one.
func cacheSpec(t testing.TB, nonce uint64, offset int) attestation.Spec {
	t.Helper()
	geo := device.TinyLX()
	golden, dyn, err := core.BuildGolden(geo, netlist.Blinker(8), 0xD00D, nonce)
	if err != nil {
		t.Fatal(err)
	}
	return attestation.Spec{Geo: geo, Golden: golden, DynFrames: dyn, Offset: offset}
}

func TestPlanCacheHitReturnsSamePlan(t *testing.T) {
	c := attestation.NewPlanCache(0)
	spec := cacheSpec(t, 0xCAFE, 0)

	p1, built, err := c.GetOrBuild(spec)
	if err != nil || !built {
		t.Fatalf("cold get: built=%v err=%v", built, err)
	}
	p2, built, err := c.GetOrBuild(spec)
	if err != nil || built {
		t.Fatalf("warm get rebuilt: built=%v err=%v", built, err)
	}
	if p1 != p2 {
		t.Fatal("cache hit returned a different plan")
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("stats hits=%d misses=%d, want 1/1", hits, misses)
	}
}

func TestPlanCacheKeySensitivity(t *testing.T) {
	// The key must cover the nonce-free golden digest and the
	// plan-shaping options: a different offset must miss; a different
	// nonce must hit and come back patched to the requested nonce; an
	// identical spec built from an independent golden image of the same
	// nonce must hit.
	c := attestation.NewPlanCache(0)
	base := cacheSpec(t, 0xCAFE, 0)
	if _, built, err := c.GetOrBuild(base); err != nil || !built {
		t.Fatalf("cold: built=%v err=%v", built, err)
	}
	p, built, err := c.GetOrBuild(cacheSpec(t, 0xD1CE, 0))
	if err != nil || built {
		t.Fatalf("different nonce should hit: built=%v err=%v", built, err)
	}
	if n := p.Nonce(); n != 0xD1CE {
		t.Fatalf("different-nonce hit encodes nonce %#x, want 0xd1ce", n)
	}
	if _, built, err := c.GetOrBuild(cacheSpec(t, 0xCAFE, 7)); err != nil || !built {
		t.Fatalf("different offset should build: built=%v err=%v", built, err)
	}
	// A freshly rebuilt golden for the same nonce has equal content, so
	// the digest-keyed lookup hits even though the *fabric.Image differs.
	if _, built, err := c.GetOrBuild(cacheSpec(t, 0xCAFE, 0)); err != nil || built {
		t.Fatalf("equal-content spec should hit: built=%v err=%v", built, err)
	}
	if c.Len() != 2 {
		t.Fatalf("cache holds %d plans, want 2", c.Len())
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	c := attestation.NewPlanCache(2)
	a := cacheSpec(t, 1, 0)
	b := cacheSpec(t, 1, 1)
	d := cacheSpec(t, 1, 2)

	c.GetOrBuild(a)
	c.GetOrBuild(b)
	c.GetOrBuild(a) // refresh a: b is now least recently used
	c.GetOrBuild(d) // evicts b

	if _, built, _ := c.GetOrBuild(a); built {
		t.Fatal("a was evicted despite being recently used")
	}
	if _, built, _ := c.GetOrBuild(d); built {
		t.Fatal("d was evicted straight after insert")
	}
	if _, built, _ := c.GetOrBuild(b); !built {
		t.Fatal("b survived beyond the capacity-2 bound")
	}
}

func TestPlanCacheConcurrentSingleBuild(t *testing.T) {
	// Concurrent requests for one missing key must build exactly once;
	// the waiters share the builder's plan.
	c := attestation.NewPlanCache(0)
	spec := cacheSpec(t, 0xFEED, 0)
	const workers = 16
	plans := make([]*attestation.Plan, workers)
	builds := make([]bool, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, built, err := c.GetOrBuild(spec)
			if err != nil {
				t.Error(err)
				return
			}
			plans[i], builds[i] = p, built
		}(i)
	}
	wg.Wait()
	nbuilt := 0
	for i := 0; i < workers; i++ {
		if builds[i] {
			nbuilt++
		}
		if plans[i] != plans[0] {
			t.Fatal("workers got different plans for one key")
		}
	}
	if nbuilt != 1 {
		t.Fatalf("%d workers report having built, want exactly 1", nbuilt)
	}
}

// TestSpecKeyTakesPrecomputedDigest: a spec carrying its GoldenDigest
// keys exactly like one whose image SpecKey hashes itself, and NewPlan
// refuses a digest that does not match the image.
func TestSpecKeyTakesPrecomputedDigest(t *testing.T) {
	spec := cacheSpec(t, 0xCAFE, 0)
	want := attestation.SpecKey(spec)
	d, err := fabric.NonceFreeDigest(spec.Golden, fabric.NonceBits)
	if err != nil {
		t.Fatal(err)
	}
	spec.GoldenDigest = d
	if got := attestation.SpecKey(spec); got != want {
		t.Fatalf("SpecKey with a precomputed digest %x, hashed %x", got, want)
	}
	if _, err := attestation.NewPlan(spec); err != nil {
		t.Fatalf("matching digest refused: %v", err)
	}
	spec.GoldenDigest[0] ^= 1
	if _, err := attestation.NewPlan(spec); err == nil {
		t.Fatal("NewPlan accepted a GoldenDigest of another image")
	}
}

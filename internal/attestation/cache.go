package attestation

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"

	"sacha/internal/fabric"
)

// DefaultPlanCacheSize bounds a PlanCache built with capacity <= 0. A
// plan holds pre-encoded messages and comparison frames for a whole
// geometry, so a long-running verifier wants a deliberate, small bound
// rather than unbounded growth across nonces.
const DefaultPlanCacheSize = 32

// SpecKey fingerprints everything a plan build depends on: the golden
// image digest (which covers the geometry's frame content and the placed
// nonce), the geometry name, the dynamic frame list and every
// plan-shaping option. Two specs with equal keys build
// behaviourally-identical plans, so a cached plan may serve both.
//
// Under PatchableNonce the golden image is hashed with the nonce
// register's bits zeroed (fabric.NonceFreeDigest): specs that differ
// only in the placed nonce share a key, so one cached plan serves every
// nonce of a device class — GetOrBuild patches it to the requested
// nonce on the way out. Patchable and non-patchable specs never share
// keys.
func SpecKey(spec Spec) [32]byte {
	h := sha256.New()
	if spec.Golden != nil {
		if spec.PatchableNonce {
			if d, err := fabric.NonceFreeDigest(spec.Golden, fabric.NonceBits); err == nil {
				h.Write(d[:])
			} else {
				// Conservative fallback: an unusable template degrades to
				// the nonce-bearing key (per-nonce cache entries), never
				// to a wrong share.
				d := spec.Golden.Digest()
				h.Write(d[:])
			}
		} else {
			d := spec.Golden.Digest()
			h.Write(d[:])
		}
	}
	geo := ""
	if spec.Geo != nil {
		geo = spec.Geo.Name
	}
	fmt.Fprintf(h, "|patch:%t|geo:%s|off:%d|app:%d|sig:%t|batch:%d|comp:%t|delta:%t|dyn:",
		spec.PatchableNonce, geo, spec.Offset, spec.AppSteps, spec.SignatureMode, spec.ConfigBatch,
		spec.Compress, spec.Delta)
	var buf [8]byte
	for _, f := range spec.DynFrames {
		binary.BigEndian.PutUint64(buf[:], uint64(f))
		h.Write(buf[:])
	}
	fmt.Fprintf(h, "|perm:%d:", len(spec.Permutation))
	for _, f := range spec.Permutation {
		binary.BigEndian.PutUint64(buf[:], uint64(f))
		h.Write(buf[:])
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// PlanCache is a concurrency-safe LRU of built plans keyed by SpecKey —
// (golden-image digest, geometry, options hash). Long-running verifiers
// and repeated fleet sweeps hit the cache instead of redoing the
// O(fabric) prediction, masking and message pre-encoding work; plans are
// immutable, so a cached plan is shared as-is across concurrent Runs.
// Concurrent requests for the same missing key build once: the first
// requester builds, the rest wait for that build.
type PlanCache struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used
	entries  map[[32]byte]*list.Element
	inflight map[[32]byte]*inflightBuild
	hits     uint64
	misses   uint64
}

type cacheEntry struct {
	key  [32]byte
	plan *Plan
}

type inflightBuild struct {
	done chan struct{}
	plan *Plan
	err  error
}

// NewPlanCache returns a cache bounded to capacity plans (LRU eviction);
// capacity <= 0 means DefaultPlanCacheSize.
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = DefaultPlanCacheSize
	}
	return &PlanCache{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[[32]byte]*list.Element),
		inflight: make(map[[32]byte]*inflightBuild),
	}
}

// GetOrBuild returns the cached plan for the spec, or builds, caches and
// returns it. built reports whether THIS call performed the build — a
// caller that waited out another goroutine's in-flight build of the same
// key gets built=false, so build counters stay exact under concurrency.
//
// Under Spec.PatchableNonce a cache hit may return a plan built for a
// different nonce of the same class; GetOrBuild then patches it to the
// spec's own nonce via WithNonce before returning, so the result is
// always equivalent to NewPlan(spec) — the hit costs O(nonce column),
// not O(fabric).
func (c *PlanCache) GetOrBuild(spec Spec) (plan *Plan, built bool, err error) {
	key := SpecKey(spec)
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.hits++
		plan := el.Value.(*cacheEntry).plan
		c.mu.Unlock()
		mPlanCacheHits.Inc()
		plan, err := adaptToSpec(plan, spec)
		return plan, false, err
	}
	if fl, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		mPlanCacheWaits.Inc()
		<-fl.done
		if fl.err != nil {
			return fl.plan, false, fl.err
		}
		plan, err := adaptToSpec(fl.plan, spec)
		return plan, false, err
	}
	fl := &inflightBuild{done: make(chan struct{})}
	c.inflight[key] = fl
	c.misses++
	c.mu.Unlock()
	mPlanCacheMisses.Inc()

	fl.plan, fl.err = NewPlan(spec)

	c.mu.Lock()
	delete(c.inflight, key)
	if fl.err == nil {
		el := c.order.PushFront(&cacheEntry{key: key, plan: fl.plan})
		c.entries[key] = el
		mPlanCacheEntries.Inc()
		for c.order.Len() > c.capacity {
			oldest := c.order.Back()
			c.order.Remove(oldest)
			delete(c.entries, oldest.Value.(*cacheEntry).key)
			mPlanCacheEvictions.Inc()
			mPlanCacheEntries.Dec()
		}
	}
	c.mu.Unlock()
	close(fl.done)
	return fl.plan, fl.err == nil, fl.err
}

// adaptToSpec re-nonces a cached patchable plan to the nonce placed in
// the requesting spec's golden image, so every GetOrBuild return is
// equivalent to a cold NewPlan(spec). Non-patchable hits pass through.
func adaptToSpec(plan *Plan, spec Spec) (*Plan, error) {
	if plan == nil || !spec.PatchableNonce || plan.patch == nil {
		return plan, nil
	}
	nonce, err := fabric.ReadNonce(spec.Golden, plan.patch.bits)
	if err != nil {
		return nil, err
	}
	return plan.WithNonce(nonce)
}

// Len returns the number of cached plans.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats returns the lifetime hit and miss counts. A wait on another
// goroutine's in-flight build counts as neither.
func (c *PlanCache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

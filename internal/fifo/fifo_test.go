package fifo

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// sync brings both domains fully up to date (two ticks flush the
// two-stage synchroniser).
func syncBoth(f *DualClock) {
	f.SyncWriteDomain()
	f.SyncWriteDomain()
	f.SyncReadDomain()
	f.SyncReadDomain()
}

func TestNewValidation(t *testing.T) {
	for _, bad := range []int{0, 1, 3, 12, -8} {
		if _, err := New(bad); err == nil {
			t.Errorf("capacity %d accepted", bad)
		}
	}
	f, err := New(8)
	if err != nil || f.Cap() != 8 {
		t.Fatalf("New(8): %v", err)
	}
}

func TestFIFOOrder(t *testing.T) {
	f, _ := New(4)
	for i := uint32(0); i < 4; i++ {
		if err := f.Push(i * 10); err != nil {
			t.Fatal(err)
		}
	}
	syncBoth(f)
	for i := uint32(0); i < 4; i++ {
		v, err := f.Pop()
		if err != nil {
			t.Fatal(err)
		}
		if v != i*10 {
			t.Fatalf("pop %d = %d", i, v)
		}
	}
	if !f.Empty() {
		t.Fatal("not empty after draining")
	}
}

func TestFullAndEmptyFlags(t *testing.T) {
	f, _ := New(4)
	syncBoth(f)
	if !f.Empty() || f.Full() {
		t.Fatal("fresh FIFO flags wrong")
	}
	for i := 0; i < 4; i++ {
		if err := f.Push(1); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	if !f.Full() {
		t.Fatal("full flag not set at capacity")
	}
	if err := f.Push(9); err == nil {
		t.Fatal("push beyond capacity accepted")
	}
	// Reader hasn't synchronised yet: still sees empty.
	if !f.Empty() {
		t.Fatal("reader saw writes before synchronisation")
	}
	syncBoth(f)
	if f.Empty() {
		t.Fatal("reader still empty after sync")
	}
}

func TestConservativeNotOptimistic(t *testing.T) {
	// After the reader drains, the writer must not see space until its
	// synchroniser catches up — stale flags are allowed to be pessimistic
	// only.
	f, _ := New(2)
	f.Push(1)
	f.Push(2)
	syncBoth(f)
	f.Pop()
	f.Pop()
	// Writer has not re-synced: must still report full.
	if !f.Full() {
		t.Fatal("writer optimistically saw freed space")
	}
	syncBoth(f)
	if f.Full() {
		t.Fatal("writer never saw freed space")
	}
}

func TestWrapAround(t *testing.T) {
	f, _ := New(4)
	for round := 0; round < 13; round++ {
		for i := 0; i < 3; i++ {
			if err := f.Push(uint32(round*3 + i)); err != nil {
				t.Fatalf("round %d push %d: %v", round, i, err)
			}
		}
		syncBoth(f)
		for i := 0; i < 3; i++ {
			v, err := f.Pop()
			if err != nil {
				t.Fatalf("round %d pop %d: %v", round, i, err)
			}
			if v != uint32(round*3+i) {
				t.Fatalf("round %d: got %d", round, v)
			}
		}
		syncBoth(f)
	}
}

func TestGrayCodeAdjacency(t *testing.T) {
	// Successive Gray codes differ in exactly one bit — the property that
	// makes cross-domain pointer sampling safe.
	for b := uint32(0); b < 1024; b++ {
		x := gray(b) ^ gray(b+1)
		if x == 0 || x&(x-1) != 0 {
			t.Fatalf("gray(%d) and gray(%d) differ in more than one bit", b, b+1)
		}
	}
}

// Property: under a random interleaving of pushes, pops and domain
// syncs, the FIFO never reorders, drops or duplicates data, and the
// flags never lie optimistically (no overwrite of unread data, no read
// of unwritten data).
func TestQuickRandomInterleaving(t *testing.T) {
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f, _ := New(8)
		var pushed, popped uint32
		for step := 0; step < 3000; step++ {
			switch rng.Intn(4) {
			case 0:
				if f.Push(pushed) == nil {
					if f.Len() > f.Cap() {
						return false // overwrote unread data
					}
					pushed++
				}
			case 1:
				if v, err := f.Pop(); err == nil {
					if v != popped {
						return false // reorder/duplicate/drop
					}
					popped++
				}
			case 2:
				f.SyncWriteDomain()
			case 3:
				f.SyncReadDomain()
			}
		}
		return popped <= pushed
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: everything pushed is eventually popped in order once both
// domains keep syncing.
func TestQuickEventualDelivery(t *testing.T) {
	fn := func(seed int64, n8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		f, _ := New(16)
		n := int(n8)%200 + 1
		var got []uint32
		next := uint32(0)
		for len(got) < n {
			if next < uint32(n) && rng.Intn(2) == 0 {
				if f.Push(next) == nil {
					next++
				}
			}
			if v, err := f.Pop(); err == nil {
				got = append(got, v)
			}
			f.SyncWriteDomain()
			f.SyncReadDomain()
		}
		for i, v := range got {
			if v != uint32(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// crossWords streams words through f into a new slice the way a
// word-by-word clock-domain crossing does: per round one push attempt,
// both synchroniser ticks, one pop attempt. It returns the output and
// the cycles spent in the write and read domains (one per moved word).
func crossWords(f *DualClock, words []uint32) (out []uint32, wcyc, rcyc int) {
	out = make([]uint32, 0, len(words))
	i := 0
	for len(out) < len(words) {
		if i < len(words) && f.Push(words[i]) == nil {
			i++
			wcyc++
		}
		f.SyncWriteDomain()
		f.SyncReadDomain()
		if v, err := f.Pop(); err == nil {
			out = append(out, v)
			rcyc++
		}
	}
	return out, wcyc, rcyc
}

// crossBurst is crossWords with PushN/PopN: per round one burst in,
// both synchroniser ticks, one burst out.
func crossBurst(f *DualClock, words []uint32) (out []uint32, wcyc, rcyc int) {
	out = make([]uint32, len(words))
	i, o := 0, 0
	for o < len(words) {
		n := f.PushN(words[i:])
		i += n
		wcyc += n
		f.SyncWriteDomain()
		f.SyncReadDomain()
		n = f.PopN(out[o:])
		o += n
		rcyc += n
	}
	return out, wcyc, rcyc
}

// TestBurstCrossingMatchesWordLoop: over every capacity and every
// length up to 700 words, on one reused FIFO each, the burst crossing
// delivers the same words for the same cycle counts and leaves the same
// occupancy as the word-by-word crossing.
func TestBurstCrossingMatchesWordLoop(t *testing.T) {
	for capacity := 2; capacity <= 256; capacity *= 2 {
		ref, _ := New(capacity)
		burst, _ := New(capacity)
		for n := 0; n <= 700; n++ {
			words := make([]uint32, n)
			for i := range words {
				words[i] = uint32(n)<<16 ^ uint32(i)*2654435761
			}
			want, wantW, wantR := crossWords(ref, words)
			got, gotW, gotR := crossBurst(burst, words)
			if !slices.Equal(got, want) || !slices.Equal(got, words) {
				t.Fatalf("cap %d, %d words: burst crossing delivered different words", capacity, n)
			}
			if gotW != wantW || gotR != wantR {
				t.Fatalf("cap %d, %d words: burst cycles %d/%d, word loop %d/%d", capacity, n, gotW, gotR, wantW, wantR)
			}
			if burst.Len() != ref.Len() {
				t.Fatalf("cap %d, %d words: occupancy %d, word loop %d", capacity, n, burst.Len(), ref.Len())
			}
		}
	}
}

// Property: from any reachable state, PushN and PopN move exactly the
// words a Push or Pop loop moves before it fails, and leave the FIFO in
// the identical state.
func TestQuickBurstEqualsWordOps(t *testing.T) {
	clone := func(f *DualClock) *DualClock {
		c := *f
		c.mem = slices.Clone(f.mem)
		return &c
	}
	same := func(a, b *DualClock) bool {
		return a.wptr == b.wptr && a.rptr == b.rptr &&
			a.wptrGraySync == b.wptrGraySync && a.rptrGraySync == b.rptrGraySync &&
			a.wptrGrayPipe == b.wptrGrayPipe && a.rptrGrayPipe == b.rptrGrayPipe &&
			slices.Equal(a.mem, b.mem)
	}
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f, _ := New(1 << (1 + rng.Intn(5)))
		next := uint32(0)
		for step := 0; step < 2000; step++ {
			switch rng.Intn(4) {
			case 0:
				src := make([]uint32, rng.Intn(2*f.Cap()))
				for i := range src {
					src[i] = next + uint32(i)
				}
				ref, k := clone(f), 0
				for k < len(src) && ref.Push(src[k]) == nil {
					k++
				}
				if f.PushN(src) != k || !same(f, ref) {
					return false
				}
				next += uint32(k)
			case 1:
				dst, want := make([]uint32, rng.Intn(2*f.Cap())), []uint32(nil)
				ref := clone(f)
				for len(want) < len(dst) {
					v, err := ref.Pop()
					if err != nil {
						break
					}
					want = append(want, v)
				}
				n := f.PopN(dst)
				if n != len(want) || !slices.Equal(dst[:n], want) || !same(f, ref) {
					return false
				}
			case 2:
				f.SyncWriteDomain()
			case 3:
				f.SyncReadDomain()
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

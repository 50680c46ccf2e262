package attestation

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"sacha/internal/device"
	"sacha/internal/fabric"
)

func TestReadbackOrderOffset(t *testing.T) {
	n := 112
	order, err := readbackOrder(n, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != n {
		t.Fatalf("order length %d", len(order))
	}
	if order[0] != 5 || order[n-1] != 4 {
		t.Fatalf("order endpoints %d..%d", order[0], order[n-1])
	}
	seen := make([]bool, n)
	for _, idx := range order {
		if seen[idx] {
			t.Fatalf("frame %d visited twice", idx)
		}
		seen[idx] = true
	}
	// Negative offsets wrap too.
	if order, _ = readbackOrder(n, -1, nil); order[0] != n-1 {
		t.Fatalf("negative offset start %d", order[0])
	}
	// Offsets beyond n wrap.
	if order, _ = readbackOrder(n, n+3, nil); order[0] != 3 {
		t.Fatalf("wrapped offset start %d", order[0])
	}
}

func TestReadbackOrderBijectionEnforced(t *testing.T) {
	full := func(n int) []int {
		p := make([]int, n)
		for i := range p {
			p[i] = i
		}
		return p
	}
	cases := []struct {
		name    string
		perm    []int
		wantSub string
	}{
		{"short", []int{0, 1, 2}, "covers 3 of"},
		{"duplicate", func() []int { p := full(10); p[7] = 3; return p }(), "twice"},
		{"negative", func() []int { p := full(10); p[0] = -1; return p }(), "out of range"},
		{"beyond", func() []int { p := full(10); p[9] = 10; return p }(), "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := readbackOrder(10, 0, tc.perm)
			if err == nil {
				t.Fatal("non-bijective permutation accepted")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q missing %q", err, tc.wantSub)
			}
		})
	}
	// A shuffled full permutation is accepted and passed through intact.
	perm := rand.New(rand.NewSource(1)).Perm(10)
	order, err := readbackOrder(10, 99, perm)
	if err != nil {
		t.Fatal(err)
	}
	for i := range perm {
		if order[i] != perm[i] {
			t.Fatal("valid permutation altered")
		}
	}
}

func TestNewPlanValidation(t *testing.T) {
	geo := device.TinyLX()
	golden := fabric.NewImage(geo)
	dyn := fabric.DynRegion(geo).Frames()
	cases := []struct {
		name string
		spec Spec
	}{
		{"nil geometry", Spec{Golden: golden, DynFrames: dyn}},
		{"nil golden", Spec{Geo: geo, DynFrames: dyn}},
		{"geometry mismatch", Spec{Geo: device.SmallLX(), Golden: golden, DynFrames: dyn}},
		{"empty dyn", Spec{Geo: geo, Golden: golden}},
		{"dyn out of range", Spec{Geo: geo, Golden: golden, DynFrames: []int{geo.NumFrames()}}},
		{"non-bijective order", Spec{Geo: geo, Golden: golden, DynFrames: dyn, Permutation: []int{0}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewPlan(tc.spec); err == nil {
				t.Fatal("invalid spec accepted")
			}
		})
	}
}

// TestConfigBatching: the base and the nonce step are batched apart, so
// a full overwrite sends ⌈base/b⌉ + ⌈nonce/b⌉ packets.
func TestConfigBatching(t *testing.T) {
	geo := device.TinyLX()
	golden := fabric.NewImage(geo)
	dyn := fabric.DynRegion(geo).Frames()
	refs, err := fabric.NonceTemplate(geo, fabric.NonceBits)
	if err != nil {
		t.Fatal(err)
	}
	nonceFrames := map[int]bool{}
	for _, ref := range refs {
		nonceFrames[ref.InitFrame] = true
		nonceFrames[ref.CapFrame] = true
	}
	nonce := len(nonceFrames)
	base := len(dyn) - nonce
	packets := func(b int) int { return (base+b-1)/b + (nonce+b-1)/b }
	cases := []struct {
		batch, wantPackets int
	}{
		{0, len(dyn)},
		{1, len(dyn)},
		{3, packets(3)},
		{99, packets(MaxConfigBatch)}, // clamped to the MTU bound
	}
	for _, tc := range cases {
		p, err := NewPlan(Spec{Geo: geo, Golden: golden, DynFrames: dyn, ConfigBatch: tc.batch})
		if err != nil {
			t.Fatal(err)
		}
		if p.ConfigPackets() != tc.wantPackets {
			t.Fatalf("batch %d: %d packets, want %d", tc.batch, p.ConfigPackets(), tc.wantPackets)
		}
	}
}

func TestPlanDoesNotAliasInputs(t *testing.T) {
	geo := device.TinyLX()
	golden := fabric.NewImage(geo)
	dyn := fabric.DynRegion(geo).Frames()
	p, err := NewPlan(Spec{Geo: geo, Golden: golden, DynFrames: dyn})
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(p.expectedFrame(0))
	// Scribbling over the caller's golden image after the build must not
	// reach the plan — it is shared read-only across concurrent Runs.
	g := golden.Frame(0)
	for i := range g {
		g[i] = 0xDEADBEEF
	}
	if !slices.Equal(p.expectedFrame(0), want) {
		t.Fatal("plan aliases the caller's golden image")
	}
	// Order() hands out copies, not the plan's own slice.
	o := p.Order()
	o[0] = -42
	if p.order[0] == -42 {
		t.Fatal("Order() leaks the plan's internal slice")
	}
}

func TestBackoffBounds(t *testing.T) {
	// Backoff doubles, caps at MaxBackoff and jitters within [d/2, d).
	// Construct the session directly: backoff needs no endpoint.
	s := &session{pol: RetryPolicy{Timeout: time.Second, Backoff: 2 * time.Millisecond,
		MaxBackoff: 8 * time.Millisecond, Seed: 7}, rng: rand.New(rand.NewSource(7))}
	for i, ms := range []time.Duration{2, 4, 8, 8, 8, 8} {
		attempt, d := i+1, ms*time.Millisecond
		if got := s.backoff(attempt); got < d/2 || got >= d {
			t.Fatalf("attempt %d backs off %v, want [%v, %v)", attempt, got, d/2, d)
		}
	}
}

// TestWithNonceCountsOnlyRealPatches: sacha_plan_patches_total and the
// patch-seconds histogram count re-derivations, not identity calls — a
// WithNonce at the plan's own nonce (every PlanCache hit at the cached
// nonce) returns the receiver and leaves both untouched.
func TestWithNonceCountsOnlyRealPatches(t *testing.T) {
	geo := device.TinyLX()
	p, err := NewPlan(Spec{Geo: geo, Golden: fabric.NewImage(geo), DynFrames: fabric.DynRegion(geo).Frames()})
	if err != nil {
		t.Fatal(err)
	}
	patches, timed := mPlanPatches.Value(), mPlanPatchSeconds.Count()
	same, err := p.WithNonce(p.Nonce())
	if err != nil || same != p {
		t.Fatalf("identity WithNonce: plan %p (want %p), err %v", same, p, err)
	}
	if got, gotTimed := mPlanPatches.Value(), mPlanPatchSeconds.Count(); got != patches || gotTimed != timed {
		t.Fatalf("identity call counted: patches %d→%d, timed %d→%d", patches, got, timed, gotTimed)
	}
	if _, err := p.WithNonce(p.Nonce() ^ 1); err != nil {
		t.Fatal(err)
	}
	if got, gotTimed := mPlanPatches.Value(), mPlanPatchSeconds.Count(); got != patches+1 || gotTimed != timed+1 {
		t.Fatalf("real patch: patches %d→%d, timed %d→%d, want +1 each", patches, got, timed, gotTimed)
	}
}

// TestNewPlanRefusesOversizedWire: every pre-encoded packet must fit one
// Ethernet payload in its sequence envelope. Sixteen incompressible
// frames do not, so a dense golden image is refused under Compress,
// while its plain packets (at most MaxConfigBatch raw frames) fit.
func TestNewPlanRefusesOversizedWire(t *testing.T) {
	geo := device.TinyLX()
	golden := RandomGolden(t, geo, rand.New(rand.NewSource(1500)))
	spec := Spec{Geo: geo, Golden: golden, DynFrames: fabric.DynRegion(geo).Frames(), ConfigBatch: MaxConfigBatch}
	p, err := NewPlan(spec)
	if err != nil {
		t.Fatalf("plain plan of a dense image: %v", err)
	}
	for _, list := range [][]configStep{p.configs, p.step.configs} {
		for _, cs := range list {
			if len(cs.wire) > maxPlanWire {
				t.Fatalf("plain packet of %d bytes exceeds %d", len(cs.wire), maxPlanWire)
			}
		}
	}
	spec.Compress = true
	if _, err := NewPlan(spec); err == nil || !strings.Contains(err.Error(), "Ethernet payload bound") {
		t.Fatalf("compressed plan of a dense image: err = %v, want the Ethernet payload refusal", err)
	}
}

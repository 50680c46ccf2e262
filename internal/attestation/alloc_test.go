package attestation

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"sacha/internal/cmac"
	"sacha/internal/compress"
	"sacha/internal/device"
	"sacha/internal/fabric"
	"sacha/internal/protocol"
	"sacha/internal/signature"
)

// BenchmarkFrameAbsorb pins the zero-allocation contract of the per-frame
// hot path: checking a plain sendback and absorbing its payload, as
// received, into the MAC and the transcript must not allocate — on the
// paper's XC6VLX240T this path runs 28,488 times per attestation, so a
// single allocation per frame is 28k garbage objects per device.
func BenchmarkFrameAbsorb(b *testing.B) {
	words := make([]uint32, device.FrameWords)
	for i := range words {
		words[i] = uint32(i * 2654435761)
	}
	var key [16]byte
	mac, err := cmac.New(key[:])
	if err != nil {
		b.Fatal(err)
	}
	transcript := signature.NewTranscript()
	resp := &protocol.Message{Type: protocol.MsgFrameData, FrameIndex: 7, Data: protocol.AppendWords(nil, words)}
	var s frameScratch
	absorb := func() {
		frame, err := s.frameBytes(7, resp)
		if err != nil {
			b.Fatal(err)
		}
		mac.Update(frame)
		transcript.Absorb(frame)
	}

	if avg := testing.AllocsPerRun(200, absorb); avg != 0 {
		b.Fatalf("frame absorption allocates %.1f objects per frame, want 0", avg)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		absorb()
	}
}

// TestReadbackCompareNoAlloc pins the verifier's half of the read-back
// path at zero allocations per frame: decoding one compressed sendback
// into the Run's scratch, masking it with Msk and comparing it with the
// expected frame. It also checks the comparison itself: a flipped
// capture bit is masked out, any other flipped bit is a mismatch. The
// golden image is random outside the nonce column, which holds the
// placed nonce register as Spec.Golden requires.
func TestReadbackCompareNoAlloc(t *testing.T) {
	geo := device.TinyLX()
	golden := RandomGolden(t, geo, rand.New(rand.NewSource(12)))
	p, err := NewPlan(Spec{Geo: geo, Golden: golden, DynFrames: fabric.DynRegion(geo).Frames()})
	if err != nil {
		t.Fatal(err)
	}
	// The first frame with a masked-out (capture) bit.
	idx, capW, capBit := -1, 0, 0
	for f := 0; f < geo.NumFrames() && idx < 0; f++ {
		for w, m := range p.mask.Frame(f) {
			if m != 0xFFFFFFFF {
				idx, capW, capBit = f, w, bits.TrailingZeros32(^m)
				break
			}
		}
	}
	if idx < 0 {
		t.Fatal("mask hides no bit")
	}
	sendback := func(flipW, flipBit int) *protocol.Message {
		words := slices.Clone(golden.Frame(idx))
		words[flipW] ^= 1 << flipBit
		return &protocol.Message{Type: protocol.MsgFrameDataC, FrameIndex: uint32(idx), Comp: compress.Encode(words)}
	}
	var s frameScratch
	check := func(resp *protocol.Message) bool {
		frame, err := s.frameBytes(idx, resp)
		if err != nil {
			t.Fatal(err)
		}
		return p.frameMatches(idx, frame)
	}
	capture := sendback(capW, capBit)
	if !check(capture) {
		t.Fatal("a flipped capture bit is not masked out")
	}
	for w, m := range p.mask.Frame(idx) {
		if m != 0 {
			if check(sendback(w, bits.TrailingZeros32(m))) {
				t.Fatal("a flipped configuration bit compares equal")
			}
			break
		}
	}
	if avg := testing.AllocsPerRun(200, func() { check(capture) }); avg != 0 {
		t.Fatalf("decode+mask+compare allocates %.1f objects per frame, want 0", avg)
	}
}

// TestFrameMatchesEqualsMaskedWords is the differential of the verdict's
// comparison: on random frames near their prediction (no flip, a flip
// in a masked-out bit, a flip anywhere), frameMatches over the frame's
// bytes equals the word formula (got ^ want) & Msk == 0, and raw word
// equality in CAPTURE mode.
func TestFrameMatchesEqualsMaskedWords(t *testing.T) {
	geo := device.TinyLX()
	rng := rand.New(rand.NewSource(28))
	golden := RandomGolden(t, geo, rng)
	dyn := fabric.DynRegion(geo).Frames()
	masked, err := NewPlan(Spec{Geo: geo, Golden: golden, DynFrames: dyn})
	if err != nil {
		t.Fatal(err)
	}
	capture, err := NewPlan(Spec{Geo: geo, Golden: golden, DynFrames: dyn, AppSteps: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Plan{masked, capture} {
		for trial := 0; trial < 4000; trial++ {
			idx := rng.Intn(geo.NumFrames())
			want := ExpectedFrame(p, idx)
			got := slices.Clone(want)
			switch trial % 3 {
			case 1:
				w := rng.Intn(len(got))
				got[w] ^= 1 << rng.Intn(32)
			case 2:
				for k := rng.Intn(4); k >= 0; k-- {
					got[rng.Intn(len(got))] ^= rng.Uint32()
				}
			}
			ref := true
			for w := range got {
				m := uint32(0xFFFFFFFF)
				if p.mask != nil {
					m = p.mask.Frame(idx)[w]
				}
				if (got[w]^want[w])&m != 0 {
					ref = false
				}
			}
			if p.frameMatches(idx, protocol.AppendWords(nil, got)) != ref {
				t.Fatalf("mask=%v frame %d trial %d: frameMatches disagrees with the word formula (%v)", p.mask != nil, idx, trial, ref)
			}
		}
	}
}

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
// hot path: serialising a frame into the Run's reused scratch buffer and
// absorbing it into the MAC and the transcript must not allocate — on the
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
	scratch := make([]byte, 0, device.FrameWords*4)

	if avg := testing.AllocsPerRun(200, func() {
		scratch = appendFrameBytes(scratch[:0], words)
		mac.Update(scratch)
		transcript.Absorb(scratch)
	}); avg != 0 {
		b.Fatalf("frame absorption allocates %.1f objects per frame, want 0", avg)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = appendFrameBytes(scratch[:0], words)
		mac.Update(scratch)
		transcript.Absorb(scratch)
	}
}

// TestReadbackCompareNoAlloc pins the verifier's half of the read-back
// path at zero allocations per frame: decoding one compressed sendback
// into the Run's scratch, masking it with Msk and comparing it with the
// expected frame. It also checks the comparison itself: a flipped
// capture bit is masked out, any other flipped bit is a mismatch.
func TestReadbackCompareNoAlloc(t *testing.T) {
	geo := device.TinyLX()
	golden := fabric.NewImage(geo)
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < golden.NumFrames(); i++ {
		for w := range golden.Frame(i) {
			golden.Frame(i)[w] = rng.Uint32()
		}
	}
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
		words, err := s.frameWords(idx, resp)
		if err != nil {
			t.Fatal(err)
		}
		return p.frameMatches(idx, words)
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

package compress

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sacha/internal/device"
	"sacha/internal/fabric"
	"sacha/internal/netlist"
)

func roundTrip(t *testing.T, words []uint32) {
	t.Helper()
	enc := Encode(words)
	dec, err := Decode(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(dec) != len(words) {
		t.Fatalf("length %d, want %d", len(dec), len(words))
	}
	for i := range words {
		if dec[i] != words[i] {
			t.Fatalf("word %d: %#x != %#x", i, dec[i], words[i])
		}
	}
}

func TestRoundTripBasic(t *testing.T) {
	roundTrip(t, nil)
	roundTrip(t, []uint32{1})
	roundTrip(t, []uint32{1, 1, 1, 1, 1})
	roundTrip(t, []uint32{1, 2, 3, 4, 5})
	roundTrip(t, []uint32{0, 0, 0, 7, 7, 7, 1, 2, 0, 0, 0, 0})
}

func TestZeroRunsCompressWell(t *testing.T) {
	words := make([]uint32, 10000)
	if r := Ratio(words); r > 0.01 {
		t.Fatalf("all-zero ratio %.4f, expected near zero", r)
	}
}

func TestRandomDataDoesNotExplode(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	words := make([]uint32, 5000)
	for i := range words {
		words[i] = rng.Uint32()
	}
	roundTrip(t, words)
	if r := Ratio(words); r > 1.1 {
		t.Fatalf("incompressible data blew up to ratio %.3f", r)
	}
}

func TestGoldenBitstreamCompression(t *testing.T) {
	// A real golden partial bitstream is sparse: it must compress by an
	// order of magnitude, while remaining (decompressed) far larger than
	// the modelled BRAM capacity — the argument of [24] the bounded
	// memory model rests on.
	geo := device.SmallLX()
	golden := fabric.NewImage(geo)
	fabric.FillStatic(golden, fabric.StatRegion(geo).Frames(), 3)
	if _, err := fabric.PlaceDesign(golden, fabric.AppRegion(geo), netlist.Blinker(16)); err != nil {
		t.Fatal(err)
	}
	var words []uint32
	for _, idx := range fabric.DynRegion(geo).Frames() {
		words = append(words, golden.Frame(idx)...)
	}
	r := Ratio(words)
	if r > 0.1 {
		t.Fatalf("golden partial bitstream ratio %.3f, expected < 0.1", r)
	}
	if compressedBytes := float64(len(words)*4) * r; compressedBytes < 500 {
		t.Fatalf("compressed size %.0f implausibly small", compressedBytes)
	}
	roundTrip(t, words)
}

func TestDecodeErrors(t *testing.T) {
	cases := [][]byte{
		{0x00},                               // truncated count
		{0x00, 0x03},                         // truncated run word
		{0x01, 0x02, 0, 0, 0, 1},             // truncated literal run
		{0x07, 0x01, 0, 0, 0, 1},             // unknown token
		{0x00, 0x00},                         // zero count
		{0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, // implausible count
	}
	for i, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("case %d: malformed input accepted", i)
		}
	}
}

// Property: round-trip over random word streams with repeat structure.
func TestQuickRoundTrip(t *testing.T) {
	fn := func(seed int64, n16 uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(n16 % 3000)
		words := make([]uint32, 0, n)
		for len(words) < n {
			switch rng.Intn(3) {
			case 0: // zero run
				run := rng.Intn(50) + 1
				for i := 0; i < run && len(words) < n; i++ {
					words = append(words, 0)
				}
			case 1: // repeated word
				w := rng.Uint32()
				run := rng.Intn(20) + 1
				for i := 0; i < run && len(words) < n; i++ {
					words = append(words, w)
				}
			default: // literals
				words = append(words, rng.Uint32())
			}
		}
		enc := Encode(words)
		dec, err := Decode(enc)
		if err != nil || len(dec) != len(words) {
			return false
		}
		for i := range words {
			if dec[i] != words[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: decoding never panics on arbitrary bytes.
func TestQuickDecodeRobust(t *testing.T) {
	fn := func(data []byte) bool {
		_, _ = Decode(data)
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeBounded(t *testing.T) {
	words := []uint32{0, 0, 0, 0, 5, 6, 7, 9, 9, 9, 9, 9}
	enc := Encode(words)

	dec, err := DecodeBounded(enc, len(words))
	if err != nil {
		t.Fatalf("exact bound rejected: %v", err)
	}
	if len(dec) != len(words) || cap(dec) != len(words) {
		t.Fatalf("len=%d cap=%d, want exactly %d", len(dec), cap(dec), len(words))
	}
	for i := range words {
		if dec[i] != words[i] {
			t.Fatalf("word %d: %#x != %#x", i, dec[i], words[i])
		}
	}

	if _, err := DecodeBounded(enc, len(words)-1); err == nil {
		t.Fatal("over-bound stream accepted")
	}
	if _, err := DecodeBounded(enc, 0); err == nil {
		t.Fatal("zero bound accepted for non-empty stream")
	}
	if out, err := DecodeBounded(nil, 0); err != nil || out != nil {
		t.Fatalf("empty stream: out=%v err=%v", out, err)
	}
}

// TestDecodeExactAllocation pins the satellite requirement: Decode
// pre-sizes its output from the first-pass token count, so decoding
// costs exactly one output allocation (no append growth).
func TestDecodeExactAllocation(t *testing.T) {
	words := make([]uint32, 4096)
	for i := range words {
		if i%7 == 0 {
			words[i] = uint32(i)
		}
	}
	enc := Encode(words)
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := Decode(enc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("Decode allocates %.0f times, want 1", allocs)
	}
}

// TestAppendDecodeReusesBuffer: decoding into a buffer with room keeps
// the prefix, reuses the backing array and allocates nothing, and the
// output bound still holds.
func TestAppendDecodeReusesBuffer(t *testing.T) {
	words := make([]uint32, device.FrameWords)
	for i := range words {
		words[i] = uint32(i / 5)
	}
	enc := Encode(words)
	buf := make([]uint32, 1, 1+len(words))
	buf[0] = 0xCAFE
	out, err := AppendDecode(buf, enc, len(words))
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &buf[0] || out[0] != 0xCAFE || len(out) != 1+len(words) {
		t.Fatalf("AppendDecode did not append in place: len %d", len(out))
	}
	for i, w := range words {
		if out[1+i] != w {
			t.Fatalf("word %d: %#x != %#x", i, out[1+i], w)
		}
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := AppendDecode(buf[:0], enc, len(words)); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("AppendDecode into a large enough buffer allocates %.0f times", allocs)
	}
	if _, err := AppendDecode(buf[:0], enc, len(words)-1); err == nil {
		t.Fatal("AppendDecode ignored the bound")
	}
}

// FuzzCompressRoundTrip checks two properties on arbitrary input:
// treating the bytes as a word stream, Encode∘Decode is the identity;
// and treating the bytes as a hostile compressed stream, DecodeBounded
// never yields (or reserves) more than the declared bound.
func FuzzCompressRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{0x00, 0x05, 1, 2, 3, 4})
	f.Add([]byte{0x01, 0x02, 0, 0, 0, 1, 0, 0, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Identity: bytes → words → Encode → Decode.
		words := make([]uint32, len(data)/4)
		for i := range words {
			words[i] = uint32(data[4*i])<<24 | uint32(data[4*i+1])<<16 |
				uint32(data[4*i+2])<<8 | uint32(data[4*i+3])
		}
		dec, err := Decode(Encode(words))
		if err != nil {
			t.Fatalf("round trip decode: %v", err)
		}
		if len(dec) != len(words) {
			t.Fatalf("round trip length %d, want %d", len(dec), len(words))
		}
		for i := range words {
			if dec[i] != words[i] {
				t.Fatalf("round trip word %d: %#x != %#x", i, dec[i], words[i])
			}
		}
		// Hostile stream: the bound must hold whenever decoding succeeds,
		// including the backing array (no hidden over-reservation).
		for _, bound := range []int{0, 1, 81, 16 * 81} {
			out, err := DecodeBounded(data, bound)
			if err != nil {
				continue
			}
			if len(out) > bound || cap(out) > bound {
				t.Fatalf("bound %d exceeded: len=%d cap=%d", bound, len(out), cap(out))
			}
		}
		// Unbounded and bounded decodes of the same valid stream agree.
		if ub, err := Decode(data); err == nil {
			b, err := DecodeBounded(data, len(ub))
			if err != nil || len(b) != len(ub) {
				t.Fatalf("bounded re-decode: len=%d err=%v, want %d", len(b), err, len(ub))
			}
		}
	})
}

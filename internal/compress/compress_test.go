package compress

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"sacha/internal/device"
	"sacha/internal/fabric"
	"sacha/internal/netlist"
	"sacha/internal/protocol"
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
	raw := make([]byte, 0, 4*len(words))
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := AppendDecodeBytes(raw, enc, len(words)); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("AppendDecodeBytes into a large enough buffer allocates %.0f times", allocs)
	}
}

// TestAppendEncodeReusesBuffer: encoding onto a prefix appends exactly
// Encode's bytes, and a buffer with room is reused without allocating.
func TestAppendEncodeReusesBuffer(t *testing.T) {
	words := make([]uint32, device.FrameWords)
	for i := range words {
		words[i] = uint32(i * 2654435761) // literal-heavy: the worst case for growth
	}
	enc := Encode(words)
	buf := append(make([]byte, 0, 2+len(enc)), 0xCA, 0xFE)
	out := AppendEncode(buf, words)
	if &out[0] != &buf[:1][0] || !bytes.Equal(out[:2], []byte{0xCA, 0xFE}) || !bytes.Equal(out[2:], enc) {
		t.Fatalf("AppendEncode onto a prefix = %x, want cafe%x in place", out, enc)
	}
	if allocs := testing.AllocsPerRun(50, func() { out = AppendEncode(out[:0], words) }); allocs != 0 {
		t.Fatalf("AppendEncode into a large enough buffer allocates %.0f times", allocs)
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

// referenceEncode is the encoder AppendEncode replaced, kept as the
// reference its output must equal byte for byte: it measures the run at
// every literal boundary afresh, so a run that ends a literal is
// measured twice. It ends a literal before a short run that would take
// it past maxCount words, as AppendEncode does.
func referenceEncode(dst []byte, words []uint32) []byte {
	out := dst
	i := 0
	for i < len(words) {
		// Measure the run starting at i.
		run := 1
		for i+run < len(words) && words[i+run] == words[i] && run < maxCount {
			run++
		}
		if run >= 3 {
			out = append(out, tokenRun)
			out = binary.AppendUvarint(out, uint64(run))
			out = binary.BigEndian.AppendUint32(out, words[i])
			i += run
			continue
		}
		// Collect a literal run up to the next ≥3 repeat.
		start := i
		for i < len(words) {
			run = 1
			for i+run < len(words) && words[i+run] == words[i] {
				run++
			}
			if run >= 3 || i+run-start > maxCount {
				break
			}
			i += run
		}
		out = append(out, tokenLiteral)
		out = binary.AppendUvarint(out, uint64(i-start))
		for _, w := range words[start:i] {
			out = binary.BigEndian.AppendUint32(out, w)
		}
	}
	return out
}

// FuzzCompressMatchesReference is the differential of the codec's
// kernels. Treating the input as word streams (its big-endian words, and
// a two-bit alphabet that is mostly runs), AppendEncode equals
// referenceEncode byte for byte. Treating it as a hostile compressed
// stream, and the encoded streams as valid ones, AppendDecodeBytes
// equals the big-endian bytes of AppendDecode under every bound, and
// the two fail on exactly the same inputs.
func FuzzCompressMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{0x00, 0x05, 1, 2, 3, 4})
	f.Add([]byte{0x01, 0x02, 0, 0, 0, 1, 0, 0, 0, 2})
	f.Add([]byte{1, 1, 2, 2, 2, 3, 3, 0, 0, 0, 0, 1, 2, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		words := make([]uint32, len(data)/4)
		for i := range words {
			words[i] = binary.BigEndian.Uint32(data[4*i:])
		}
		runs := make([]uint32, len(data))
		for i, b := range data {
			runs[i] = uint32(b & 3)
		}
		var streams [][]byte
		for _, ws := range [][]uint32{words, runs} {
			got, want := AppendEncode([]byte{0xCA}, ws), referenceEncode([]byte{0xCA}, ws)
			if !bytes.Equal(got, want) {
				t.Fatalf("AppendEncode(%v)\n= %x\nreference %x", ws, got, want)
			}
			streams = append(streams, got[1:])
		}
		streams = append(streams, data)
		for _, s := range streams {
			for _, bound := range []int{-1, 0, 1, 81, len(runs)} {
				w, werr := AppendDecode([]uint32{7}, s, bound)
				b, berr := AppendDecodeBytes([]byte{0xFE}, s, bound)
				if (werr == nil) != (berr == nil) {
					t.Fatalf("bound %d on %x: word decoder err %v, byte decoder err %v", bound, s, werr, berr)
				}
				if werr != nil {
					continue
				}
				if want := protocol.AppendWords([]byte{0xFE}, w[1:]); !bytes.Equal(b, want) {
					t.Fatalf("bound %d on %x: byte decoder %x, words %x", bound, s, b, want)
				}
			}
		}
	})
}

// TestEncodeRunCapMatchesReference covers what the fuzzer cannot reach:
// runs longer than one token may count split into maxCount-word tokens,
// leaving zero to three words over, exactly as the reference splits them.
func TestEncodeRunCapMatchesReference(t *testing.T) {
	words := make([]uint32, maxCount+4)
	words[len(words)-1] = 9
	for off := 0; off <= 3; off++ {
		got, want := AppendEncode(nil, words[off:]), referenceEncode(nil, words[off:])
		if !bytes.Equal(got, want) {
			t.Fatalf("run of %d words: %x, reference %x", maxCount+3-off, got, want)
		}
	}
}

// TestEncodeLiteralCap is the regression for a literal one word over
// the cap: one odd word, then equal pairs, 1 + maxCount + 2 words in
// all. A literal that absorbed the last pair at maxCount-1 words would
// declare maxCount+1, a count every decoder rejects. The stream decodes
// in place over the input words, which are then checked against the
// pattern that made them.
func TestEncodeLiteralCap(t *testing.T) {
	word := func(i int) uint32 { return uint32((i + 1) / 2) }
	words := make([]uint32, 1+maxCount+2)
	for i := range words {
		words[i] = word(i)
	}
	enc := Encode(words)
	if !bytes.Equal(enc, referenceEncode(make([]byte, 0, len(enc)), words)) {
		t.Fatal("AppendEncode differs from the reference encoder")
	}
	got, err := AppendDecode(words[:0], enc, -1)
	if err != nil {
		t.Fatalf("decode of the encoded stream: %v", err)
	}
	if len(got) != len(words) {
		t.Fatalf("decoded %d words, want %d", len(got), len(words))
	}
	for i, w := range got {
		if w != word(i) {
			t.Fatalf("word %d decoded as %#x, want %#x", i, w, word(i))
		}
	}
}

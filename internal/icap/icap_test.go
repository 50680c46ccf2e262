package icap

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sacha/internal/device"
	"sacha/internal/fabric"
	"sacha/internal/sim"
)

func newPort(geo *device.Geometry) (*Port, *fabric.Fabric, *sim.Clock) {
	fab := fabric.New(geo)
	clk := sim.NewClock("icap", sim.ICAPClockHz)
	return New(fab, clk), fab, clk
}

func randFrame(rng *rand.Rand) []uint32 {
	f := make([]uint32, device.FrameWords)
	for i := range f {
		f[i] = rng.Uint32()
	}
	return f
}

func TestConfigSingleFrame(t *testing.T) {
	geo := device.SmallLX()
	p, fab, _ := newPort(geo)
	rng := rand.New(rand.NewSource(1))
	frame := randFrame(rng)
	const idx = 123
	stream, err := ConfigFrameStream(geo, idx, frame)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Write(stream); err != nil {
		t.Fatal(err)
	}
	got := fab.Mem.Frame(idx)
	for w := range frame {
		if got[w] != frame[w] {
			t.Fatalf("word %d: %#x != %#x", w, got[w], frame[w])
		}
	}
	if p.FramesWritten() != 1 {
		t.Fatalf("FramesWritten = %d", p.FramesWritten())
	}
}

func TestConfigThenReadbackRoundTrip(t *testing.T) {
	geo := device.SmallLX()
	p, _, _ := newPort(geo)
	rng := rand.New(rand.NewSource(2))
	// Write three frames at scattered addresses, read each back.
	idxs := []int{0, 57, geo.NumFrames() - 1}
	frames := make(map[int][]uint32)
	for _, idx := range idxs {
		f := randFrame(rng)
		frames[idx] = f
		stream, err := ConfigFrameStream(geo, idx, f)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Write(stream); err != nil {
			t.Fatal(err)
		}
	}
	for _, idx := range idxs {
		cmd, err := ReadbackCmdStream(geo, idx)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Write(cmd); err != nil {
			t.Fatal(err)
		}
		data, err := p.Read(ReadbackWords)
		if err != nil {
			t.Fatal(err)
		}
		got := data[device.FrameWords:] // skip pad frame
		want := frames[idx]
		for w := range want {
			// Capture substitution may clear FF capture bits for frames in
			// CLB columns; compare modulo the mask.
			mask := fabric.GenerateMask(geo).Frame(idx)
			if got[w]&mask[w] != want[w]&mask[w] {
				t.Fatalf("frame %d word %d: %#x != %#x", idx, w, got[w], want[w])
			}
		}
	}
	if p.FramesRead() != int64(len(idxs)) {
		t.Fatalf("FramesRead = %d", p.FramesRead())
	}
}

func TestFARAutoIncrement(t *testing.T) {
	// A multi-frame FDRI write must land in consecutive frames.
	geo := device.SmallLX()
	p, fab, _ := newPort(geo)
	rng := rand.New(rand.NewSource(3))
	f0, f1 := randFrame(rng), randFrame(rng)
	far, _ := geo.FARForFrame(10)
	stream := []uint32{
		DummyWord, SyncWord,
		Type1(opWrite, RegCMD, 1), CmdWCFG,
		Type1(opWrite, RegFAR, 1), far.Encode(),
		Type2(opWrite, 3*device.FrameWords),
	}
	stream = append(stream, f0...)
	stream = append(stream, f1...)
	stream = append(stream, make([]uint32, device.FrameWords)...) // pad
	if err := p.Write(stream); err != nil {
		t.Fatal(err)
	}
	if fab.Mem.Frame(10)[0] != f0[0] || fab.Mem.Frame(11)[0] != f1[0] {
		t.Fatal("FAR auto-increment failed")
	}
	if p.FramesWritten() != 2 {
		t.Fatalf("FramesWritten = %d, want 2 (pad not committed)", p.FramesWritten())
	}
}

func TestCycleAccounting(t *testing.T) {
	geo := device.SmallLX()
	p, _, clk := newPort(geo)
	frame := make([]uint32, device.FrameWords)
	stream, _ := ConfigFrameStream(geo, 5, frame)
	if err := p.Write(stream); err != nil {
		t.Fatal(err)
	}
	// One cycle per word of the stream.
	if clk.Cycles() != int64(len(stream)) {
		t.Fatalf("cycles = %d, want %d", clk.Cycles(), len(stream))
	}
	// A single-frame config stream is frame+pad plus a handful of
	// command words — the paper's A2 is ~183 ICAP cycles.
	if len(stream) < 2*device.FrameWords || len(stream) > 2*device.FrameWords+30 {
		t.Fatalf("config stream length %d out of expected range", len(stream))
	}
}

func TestErrors(t *testing.T) {
	geo := device.SmallLX()
	p, _, _ := newPort(geo)
	if err := p.Write([]uint32{0x12345678}); err == nil {
		t.Error("word before sync accepted")
	}
	p, _, _ = newPort(geo)
	// FDRI without WCFG.
	if err := p.Write([]uint32{SyncWord, Type1(opWrite, RegFDRI, 1), 0}); err == nil {
		t.Error("FDRI without WCFG accepted")
	}
	p, _, _ = newPort(geo)
	// FDRO read without RCFG.
	if err := p.Write([]uint32{SyncWord, Type1(opRead, RegFDRO, 162)}); err == nil {
		t.Error("FDRO without RCFG accepted")
	}
	p, _, _ = newPort(geo)
	// Truncated packet.
	if err := p.Write([]uint32{SyncWord, Type1(opWrite, RegFAR, 1)}); err == nil {
		t.Error("truncated packet accepted")
	}
	p, _, _ = newPort(geo)
	// Unsupported register.
	if err := p.Write([]uint32{SyncWord, Type1(opWrite, 9, 1), 0}); err == nil {
		t.Error("unsupported register accepted")
	}
	// Read more than queued.
	if _, err := p.Read(1); err == nil {
		t.Error("overdrawn read accepted")
	}
	// Readback from a FAR outside the device fails and queues nothing:
	// not even the pad frame is left for a later read to return.
	badFAR := device.FAR{Row: geo.Rows}.Encode()
	if err := p.Write([]uint32{SyncWord, Type1(opWrite, RegCMD, 1), CmdRCFG,
		Type1(opWrite, RegFAR, 1), badFAR, Type1(opRead, RegFDRO, ReadbackWords)}); err == nil {
		t.Error("readback from a FAR outside the device accepted")
	}
	if _, err := p.Read(1); err == nil {
		t.Error("a failed readback left words queued")
	}
	// Bad FAR.
	if _, err := ConfigFrameStream(geo, -1, make([]uint32, device.FrameWords)); err == nil {
		t.Error("bad frame index accepted")
	}
	if _, err := ConfigFrameStream(geo, 0, make([]uint32, 3)); err == nil {
		t.Error("short frame accepted")
	}
	if _, err := ReadbackCmdStream(geo, 1<<30); err == nil {
		t.Error("bad readback index accepted")
	}
}

func TestDesyncRequiresResync(t *testing.T) {
	geo := device.SmallLX()
	p, _, _ := newPort(geo)
	frame := make([]uint32, device.FrameWords)
	stream, _ := ConfigFrameStream(geo, 0, frame) // ends with DESYNC
	if err := p.Write(stream); err != nil {
		t.Fatal(err)
	}
	// After desync, a bare packet header must be rejected.
	if err := p.Write([]uint32{Type1(opWrite, RegFAR, 1), 0}); err == nil {
		t.Fatal("packet accepted after desync")
	}
}

func TestRCRCResetsCRC(t *testing.T) {
	geo := device.SmallLX()
	p, _, _ := newPort(geo)
	frame := make([]uint32, device.FrameWords)
	stream, _ := ConfigFrameStream(geo, 0, frame)
	if err := p.Write(stream); err != nil {
		t.Fatal(err)
	}
	if err := p.Write([]uint32{DummyWord, SyncWord, Type1(opWrite, RegCMD, 1), CmdRCRC}); err != nil {
		t.Fatal(err)
	}
	if p.CRC() != 0 {
		t.Fatalf("CRC = %#x after RCRC", p.CRC())
	}
}

// Property: any frame written through the packet protocol reads back
// identically (modulo capture mask) at any valid index.
func TestQuickConfigReadback(t *testing.T) {
	geo := device.SmallLX()
	p, _, _ := newPort(geo)
	mask := fabric.GenerateMask(geo)
	f := func(seed int64, idxRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		idx := int(idxRaw) % geo.NumFrames()
		frame := randFrame(rng)
		stream, err := ConfigFrameStream(geo, idx, frame)
		if err != nil {
			return false
		}
		if err := p.Write(stream); err != nil {
			return false
		}
		cmd, err := ReadbackCmdStream(geo, idx)
		if err != nil {
			return false
		}
		if err := p.Write(cmd); err != nil {
			return false
		}
		data, err := p.Read(ReadbackWords)
		if err != nil {
			return false
		}
		got := data[device.FrameWords:]
		m := mask.Frame(idx)
		for w := range frame {
			if got[w]&m[w] != frame[w]&m[w] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFARWrapsAtDeviceEnd(t *testing.T) {
	// Writing the device's last frame auto-increments the FAR back to
	// frame 0; a follow-up FDRI write without a new FAR lands there.
	geo := device.SmallLX()
	p, fab, _ := newPort(geo)
	rng := rand.New(rand.NewSource(9))
	last := geo.NumFrames() - 1
	f0, f1 := randFrame(rng), randFrame(rng)
	far, _ := geo.FARForFrame(last)
	stream := []uint32{
		DummyWord, SyncWord,
		Type1(opWrite, RegCMD, 1), CmdWCFG,
		Type1(opWrite, RegFAR, 1), far.Encode(),
		Type2(opWrite, 3*device.FrameWords),
	}
	stream = append(stream, f0...)
	stream = append(stream, f1...)
	stream = append(stream, make([]uint32, device.FrameWords)...) // pad
	if err := p.Write(stream); err != nil {
		t.Fatal(err)
	}
	if fab.Mem.Frame(last)[0] != f0[0] {
		t.Fatal("last frame not written")
	}
	if fab.Mem.Frame(0)[0] != f1[0] {
		t.Fatal("FAR did not wrap to frame 0")
	}
}

func TestHeaderCodec(t *testing.T) {
	h := Type1(opWrite, RegCMD, 1)
	if headerType(h) != 1 || headerOp(h) != opWrite || headerReg(h) != RegCMD || h&0x7FF != 1 {
		t.Fatalf("type-1 header fields wrong: %#08x", h)
	}
	h2 := Type2(opWrite, 162)
	if headerType(h2) != 2 || headerOp(h2) != opWrite || h2&0x7FFFFFF != 162 {
		t.Fatalf("type-2 header fields wrong: %#08x", h2)
	}
}

// crcStepBitwise is the shift-register loop crcStep's nibble table
// replaced, kept as its reference.
func crcStepBitwise(crc, word uint32, reg int) uint32 {
	x := crc ^ word ^ uint32(reg)<<26
	for i := 0; i < 4; i++ {
		if x&1 != 0 {
			x = x>>1 ^ 0xEDB88320
		} else {
			x >>= 1
		}
	}
	return x
}

// TestCRCStepMatchesBitwise: the table form equals the bitwise loop
// over random (crc, word, register) triples and every low nibble.
func TestCRCStepMatchesBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 1<<16; i++ {
		crc, word, reg := rng.Uint32(), rng.Uint32(), rng.Intn(32)
		if i < 16 {
			crc, word = 0, uint32(i)
		}
		if got, want := crcStep(crc, word, reg), crcStepBitwise(crc, word, reg); got != want {
			t.Fatalf("crcStep(%#x, %#x, %d) = %#x, bitwise %#x", crc, word, reg, got, want)
		}
	}
}

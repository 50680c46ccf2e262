package icap

import (
	"encoding/binary"
	"testing"

	"sacha/internal/device"
)

// oversizedReadback asks for 2^24 FDRO words after RCFG: 2,300 readbacks
// of the whole TinyLX device, wrapping the FAR.
var oversizedReadback = []uint32{SyncWord, Type1(opWrite, RegCMD, 1), CmdRCFG, Type2(opRead, 1<<24)}

// TestReadbackRequestBounded: an FDRO read larger than one whole-device
// readback is refused with nothing queued and nothing read back, and so
// is a read that would push the undrained queue past that size. A
// whole-device read itself is served, and draining the queue makes room
// again.
func TestReadbackRequestBounded(t *testing.T) {
	geo := device.TinyLX()
	p, _, _ := newPort(geo)
	if err := p.Write(oversizedReadback); err == nil {
		t.Fatal("FDRO read of 2^24 words accepted")
	}
	if p.FramesRead() != 0 {
		t.Fatalf("refused read still read back %d frames", p.FramesRead())
	}
	if _, err := p.Read(1); err == nil {
		t.Fatal("refused read left words queued")
	}

	limit := (geo.NumFrames() + 1) * device.FrameWords
	whole := []uint32{SyncWord, Type1(opWrite, RegCMD, 1), CmdRCFG, Type2(opRead, limit)}
	if err := p.Write(whole); err != nil {
		t.Fatalf("whole-device readback refused: %v", err)
	}
	if got := p.FramesRead(); got != int64(geo.NumFrames()) {
		t.Fatalf("whole-device readback read %d frames, want %d", got, geo.NumFrames())
	}
	if err := p.Write([]uint32{Type1(opRead, RegFDRO, 1)}); err == nil {
		t.Fatal("read past the undrained whole-device queue accepted")
	}
	if _, err := p.Read(limit); err != nil {
		t.Fatalf("draining the queue: %v", err)
	}
	if err := p.Write([]uint32{Type1(opRead, RegFDRO, ReadbackWords)}); err != nil {
		t.Fatalf("read after draining refused: %v", err)
	}
}

// FuzzICAPStream feeds arbitrary words (big-endian, four bytes each)
// into a fresh TinyLX port. It must never panic; the readback queue
// stays within one whole-device readback and its buffer within twice
// that, every FDRO packet reads back at most that many frames, and the
// port commits at most one frame per FrameWords input words.
func FuzzICAPStream(f *testing.F) {
	geo := device.TinyLX()
	seed := func(words []uint32) {
		b := make([]byte, 4*len(words))
		for i, w := range words {
			binary.BigEndian.PutUint32(b[4*i:], w)
		}
		f.Add(b)
	}
	cfg, err := ConfigFrameStream(geo, 5, make([]uint32, device.FrameWords))
	if err != nil {
		f.Fatal(err)
	}
	rb, err := ReadbackCmdStream(geo, geo.NumFrames()-1)
	if err != nil {
		f.Fatal(err)
	}
	seed(cfg)
	seed(rb)
	seed(oversizedReadback)
	seed(append(append([]uint32(nil), cfg...), rb...))

	limit := (geo.NumFrames() + 1) * device.FrameWords
	f.Fuzz(func(t *testing.T, b []byte) {
		words := make([]uint32, len(b)/4)
		for i := range words {
			words[i] = binary.BigEndian.Uint32(b[4*i:])
		}
		p, _, _ := newPort(geo)
		p.Write(words) // errors are expected; panics and unbounded work are not
		if n := len(p.rdQueue); n > limit {
			t.Fatalf("readback queue holds %d words, bound %d", n, limit)
		}
		if c := cap(p.rdQueue); c > 2*(limit+device.FrameWords) {
			t.Fatalf("readback buffer grew to %d words, bound %d", c, 2*(limit+device.FrameWords))
		}
		if max := int64(len(words)) * int64(geo.NumFrames()+1); p.FramesRead() > max {
			t.Fatalf("%d frames read back from %d words", p.FramesRead(), len(words))
		}
		if max := int64(len(words) / device.FrameWords); p.FramesWritten() > max {
			t.Fatalf("%d frames written from %d words", p.FramesWritten(), len(words))
		}
	})
}

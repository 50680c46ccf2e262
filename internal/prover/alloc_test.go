package prover

import (
	"slices"
	"testing"

	"sacha/internal/device"
	"sacha/internal/protocol"
)

// BenchmarkAppendFrameBytes pins the device-side half of the
// zero-allocation contract: serialising a read-back frame into the
// device's reused scratch buffer must not allocate (the MAC and the
// transcript copy what they absorb, so the reuse is safe).
func BenchmarkAppendFrameBytes(b *testing.B) {
	words := make([]uint32, device.FrameWords)
	for i := range words {
		words[i] = uint32(i * 40503)
	}
	scratch := make([]byte, 0, device.FrameWords*4)

	if avg := testing.AllocsPerRun(200, func() {
		scratch = appendFrameBytes(scratch[:0], words)
	}); avg != 0 {
		b.Fatalf("frame serialisation allocates %.1f objects per frame, want 0", avg)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = appendFrameBytes(scratch[:0], words)
	}
}

// TestReadFrameRawNoAlloc pins the device's readback path — the ICAP
// command stream, the FDRO read and the FIFO crossing into the TX domain
// — at zero allocations per frame, and checks that the reused buffers
// still carry the fabric's readback of each frame.
func TestReadFrameRawNoAlloc(t *testing.T) {
	d := newDevice(t)
	n := d.Geo.NumFrames()
	for idx := 0; idx < n; idx += 97 {
		got, err := d.readFrameRaw(idx)
		if err != nil {
			t.Fatal(err)
		}
		want, err := d.Fabric.ReadbackFrame(idx)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("frame %d: readFrameRaw differs from the fabric readback", idx)
		}
	}
	idx := 0
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := d.readFrameRaw(idx); err != nil {
			t.Fatal(err)
		}
		idx = (idx + 13) % n
	}); avg != 0 {
		t.Fatalf("readFrameRaw allocates %.1f objects per frame, want 0", avg)
	}
}

// TestReadbackResponseOwnsWords: readFrameRaw reuses device buffers, so
// a FrameData response must carry its own copy — an earlier response
// keeps its words when later frames are read back.
func TestReadbackResponseOwnsWords(t *testing.T) {
	d := newDevice(t)
	first, err := d.Handle(protocol.Readback(1))
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(first.Words)
	for idx := 2; idx < 40; idx++ {
		if _, err := d.Handle(protocol.Readback(idx)); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(first.Words, want) {
		t.Fatal("a later readback overwrote an earlier response's words")
	}
}

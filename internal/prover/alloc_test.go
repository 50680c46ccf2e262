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
		scratch = protocol.AppendWords(scratch[:0], words)
	}); avg != 0 {
		b.Fatalf("frame serialisation allocates %.1f objects per frame, want 0", avg)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = protocol.AppendWords(scratch[:0], words)
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

// TestReadbackResponseOwnsWords: handleReadback serialises each frame
// into a reused device buffer, so a FrameData response must carry its
// own copy — an earlier response keeps its frame bytes, the fabric's
// readback of that frame, when later frames are read back.
func TestReadbackResponseOwnsWords(t *testing.T) {
	d := newDevice(t)
	first, err := d.Handle(protocol.Readback(1))
	if err != nil {
		t.Fatal(err)
	}
	frame, err := d.Fabric.ReadbackFrame(1)
	if err != nil {
		t.Fatal(err)
	}
	want := protocol.AppendWords(nil, frame)
	for idx := 2; idx < 40; idx++ {
		if _, err := d.Handle(protocol.Readback(idx)); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(first.Data, want) {
		t.Fatal("a later readback overwrote an earlier response's frame, or it never held frame 1")
	}
}

// TestServeReadbackNoAlloc pins the serve loop's path for a compressed
// ICAP_readback — request decode, readback, MAC step, compression and
// response encode — at zero allocations: every buffer is the device's
// own and is reused on the next request.
func TestServeReadbackNoAlloc(t *testing.T) {
	d := newDevice(t)
	hello, err := protocol.Hello(protocol.CapCompress).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.serveBytes(hello); err != nil {
		t.Fatal(err)
	}
	n := d.Geo.NumFrames()
	reqs := make([][]byte, 0, 64)
	for idx := 0; idx < n && len(reqs) < cap(reqs); idx += 29 {
		req, err := protocol.Readback(idx).Encode()
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, req)
	}
	i := 0
	if avg := testing.AllocsPerRun(200, func() {
		resps, err := d.serveBytes(reqs[i%len(reqs)])
		if err != nil || len(resps) != 1 || resps[0][0] != byte(protocol.MsgFrameDataC) {
			t.Fatalf("readback answered %v, %v", resps, err)
		}
		i++
	}); avg != 0 {
		t.Fatalf("serving a compressed readback allocates %.1f objects, want 0", avg)
	}
}

// TestHandleBytesAllOwnsResponses: the serve path reuses its buffers,
// so HandleBytesAll must return copies — a response keeps its bytes
// after 40 later requests, plain and compressed.
func TestHandleBytesAllOwnsResponses(t *testing.T) {
	for _, caps := range []uint32{0, protocol.CapCompress} {
		d := newDevice(t)
		hello, err := protocol.Hello(caps).Encode()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.HandleBytesAll(hello); err != nil {
			t.Fatal(err)
		}
		readback := func(idx int) []byte {
			req, err := protocol.Readback(idx).Encode()
			if err != nil {
				t.Fatal(err)
			}
			resps, err := d.HandleBytesAll(req)
			if err != nil || len(resps) != 1 {
				t.Fatalf("readback %d: %d responses, %v", idx, len(resps), err)
			}
			return resps[0]
		}
		first := readback(1)
		want := slices.Clone(first)
		for idx := 2; idx < 42; idx++ {
			readback(idx)
		}
		if !slices.Equal(first, want) {
			t.Fatalf("caps %#x: a later request overwrote an earlier response", caps)
		}
	}
}

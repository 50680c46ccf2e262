package bitstream

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"sacha/internal/device"
)

// hostileHeader is a 12-byte file whose header claims the maximum frame
// count (1<<24) and carries no frame at all.
func hostileHeader() []byte {
	b := []byte(Magic)
	b = binary.BigEndian.AppendUint16(b, FormatVersion)
	b = binary.BigEndian.AppendUint16(b, 0) // empty device name
	return binary.BigEndian.AppendUint32(b, 1<<24)
}

// readAlloc runs Read on data and returns the bytes it allocated.
func readAlloc(data []byte) (*Partial, error, uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := Read(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	return p, err, after.TotalAlloc - before.TotalAlloc
}

// allocBound is the most Read may allocate for an input of n bytes: a
// fixed allowance for the header and reader state, plus a few bytes per
// input byte for the frames the input actually carries.
func allocBound(n int) uint64 { return 64<<10 + 4*uint64(n) }

// TestReadBoundsAllocationByInput is the regression test for a header
// whose unchecked frame count sized the frame slice before a single
// frame was read: 12 bytes claiming 1<<24 frames must fail on the
// missing frames without allocating for them.
func TestReadBoundsAllocationByInput(t *testing.T) {
	data := hostileHeader()
	p, err, alloc := readAlloc(data)
	if err == nil {
		t.Fatalf("header-only file accepted: %+v", p)
	}
	if alloc > allocBound(len(data)) {
		t.Fatalf("Read allocated %d bytes for a %d-byte input, want ≤ %d", alloc, len(data), allocBound(len(data)))
	}
}

// FuzzBitstreamRead feeds arbitrary bytes to Read: it must never panic,
// must allocate in proportion to the input, and whatever it accepts must
// re-serialise to the bytes it consumed.
func FuzzBitstreamRead(f *testing.F) {
	im := randomImage(7, device.TinyLX())
	for _, frames := range [][]int{nil, {0}, {3, 1, 4}} {
		var buf bytes.Buffer
		if _, err := FromImage(im, frames).WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(hostileHeader())
	f.Add([]byte(Magic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err, alloc := readAlloc(data)
		if alloc > allocBound(len(data)) {
			t.Fatalf("Read allocated %d bytes for a %d-byte input, want ≤ %d", alloc, len(data), allocBound(len(data)))
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := p.WriteTo(&out); err != nil {
			t.Fatalf("accepted partial does not serialise: %v", err)
		}
		if !bytes.HasPrefix(data, out.Bytes()) {
			t.Fatalf("round trip changed the bytes:\nin  %x\nout %x", data, out.Bytes())
		}
	})
}

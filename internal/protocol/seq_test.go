package protocol

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"
)

func TestSeqEnvelopeRoundTrip(t *testing.T) {
	inner, err := Readback(4711).Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Message{WrapReq(7, inner), WrapResp(1<<31, inner)} {
		back := roundTrip(t, m)
		if back.Seq != m.Seq {
			t.Fatalf("%v seq %d -> %d", m.Type, m.Seq, back.Seq)
		}
		if !bytes.Equal(back.Inner, inner) {
			t.Fatalf("%v inner mismatch", m.Type)
		}
		em, err := Decode(back.Inner)
		if err != nil || em.Type != MsgICAPReadback || em.FrameIndex != 4711 {
			t.Fatalf("embedded message: %+v %v", em, err)
		}
	}
}

func TestSeqEnvelopeCRCDetectsCorruption(t *testing.T) {
	inner, _ := Readback(1).Encode()
	wire, err := WrapReq(3, inner).Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit in every position after the type byte: sequence
	// number, CRC field, and embedded payload must all be covered.
	for i := 1; i < len(wire); i++ {
		cp := append([]byte(nil), wire...)
		cp[i] ^= 0x40
		if _, err := Decode(cp); err == nil {
			t.Fatalf("byte %d corruption not detected", i)
		}
	}
}

func TestSeqEnvelopeRejectsEmptyInner(t *testing.T) {
	if _, err := WrapReq(1, nil).Encode(); err == nil {
		t.Fatal("empty envelope accepted on encode")
	}
	// 9-byte wire form would be an envelope with zero-length inner.
	if _, err := Decode([]byte{byte(MsgSeqReq), 0, 0, 0, 1, 0, 0, 0, 0}); err == nil {
		t.Fatal("short envelope accepted on decode")
	}
}

func TestSeqCRCBindsSequenceNumber(t *testing.T) {
	// The CRC covers the sequence number: splicing an old payload under a
	// new sequence number must not validate.
	inner, _ := Readback(9).Encode()
	a, _ := WrapReq(1, inner).Encode()
	b, _ := WrapReq(2, inner).Encode()
	// Graft b's seq field onto a's CRC+payload.
	spliced := append([]byte(nil), a...)
	copy(spliced[1:5], b[1:5])
	if _, err := Decode(spliced); err == nil {
		t.Fatal("spliced sequence number accepted")
	}
}

// TestSeqCRCMatchesIEEE pins the envelope checksum bit for bit to CRC-32
// (IEEE) over the big-endian sequence number followed by the embedded
// message, so envelopes on the wire keep their bytes.
func TestSeqCRCMatchesIEEE(t *testing.T) {
	inner, _ := Readback(4711).Encode()
	for _, seq := range []uint32{0, 1, 2, 0xFF, 0x100, 0xDEADBEEF, 1 << 31, 0xFFFFFFFF} {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], seq)
		want := crc32.ChecksumIEEE(append(hdr[:], inner...))
		if got := seqCRC(seq, inner); got != want {
			t.Fatalf("seqCRC(%#x) = %#08x, want %#08x", seq, got, want)
		}
	}
}

// TestSeqEnvelopeNoAlloc pins the reliable transport's codec at zero
// allocations: an envelope encoded into a reused buffer and decoded into
// a reused Message.
func TestSeqEnvelopeNoAlloc(t *testing.T) {
	inner, _ := Readback(4711).Encode()
	var buf []byte
	var back Message
	seq := uint32(0)
	roundTrip := func() {
		seq++
		env := Message{Type: MsgSeqReq, Seq: seq, Inner: inner}
		var err error
		if buf, err = env.AppendEncode(buf[:0]); err != nil {
			t.Fatal(err)
		}
		if err := DecodeInto(&back, buf); err != nil || back.Seq != seq {
			t.Fatalf("decode: seq %d, %v", back.Seq, err)
		}
	}
	roundTrip() // size the buffers
	if avg := testing.AllocsPerRun(200, roundTrip); avg != 0 {
		t.Fatalf("envelope encode+decode allocates %.1f objects, want 0", avg)
	}
}

func TestDecodeRejectsZeroBatch(t *testing.T) {
	if _, err := Decode([]byte{byte(MsgICAPConfigBatch), 0}); err == nil {
		t.Fatal("zero-frame batch accepted")
	}
}

func TestDecodeRejectsOversizedError(t *testing.T) {
	long := strings.Repeat("e", MaxErrLen+1)
	wire := []byte{byte(MsgError), byte(len(long) >> 8), byte(len(long))}
	wire = append(wire, long...)
	if _, err := Decode(wire); err == nil {
		t.Fatal("oversized error string accepted")
	}
}

func TestErrorfTruncates(t *testing.T) {
	m := Errorf("%s", strings.Repeat("y", 5000))
	if len(m.Err) != MaxErrLen {
		t.Fatalf("Errorf kept %d bytes, want %d", len(m.Err), MaxErrLen)
	}
	if _, err := m.Encode(); err != nil {
		t.Fatalf("truncated error does not encode: %v", err)
	}
}

package protocol

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"sacha/internal/device"
)

// fuzzSeeds returns one valid wire form per message type plus a few
// near-valid mutants, so the fuzzer starts from deep protocol states.
func fuzzSeeds(t interface{ Fatal(...any) }) [][]byte {
	words := make([]uint32, device.FrameWords)
	for i := range words {
		words[i] = uint32(i * 0x01010101)
	}
	inner, err := Readback(17).Encode()
	if err != nil {
		t.Fatal(err)
	}
	msgs := []*Message{
		Config(137, words),
		{Type: MsgICAPConfigBatch, Batch: []FrameRecord{{Index: 1, Words: words}, {Index: 2, Words: words}}},
		Readback(28487),
		Checksum(),
		{Type: MsgSigChecksum, Arg: 5},
		{Type: MsgAppStep, Steps: 1000},
		{Type: MsgFrameData, FrameIndex: 12345, Words: words},
		{Type: MsgMACValue, MAC: [16]byte{1, 2, 3}, Arg: 9},
		{Type: MsgSigValue, Sig: bytes.Repeat([]byte{0xAB}, 71)},
		Errorf("bad FAR %d", 9),
		{Type: MsgAck},
		WrapReq(42, inner),
		WrapResp(42, inner),
		Hello(CapCompress | CapScan),
		{Type: MsgHelloAck, Caps: CapScan},
		Scan([]uint32{3, 4, 5}),
		{Type: MsgScanData, Frames: []uint32{3, 4}, Comp: []byte{1, 2, 0, 0, 0, 7}},
		{Type: MsgICAPConfigBatchC, Frames: []uint32{9}, Comp: []byte{0, 81, 0, 0, 0, 0}},
		{Type: MsgFrameDataC, FrameIndex: 77, Comp: []byte{0, 81, 1, 2, 3, 4}},
	}
	seeds := make([][]byte, 0, len(msgs)+4)
	for _, m := range msgs {
		wire, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, wire)
	}
	seeds = append(seeds,
		nil,
		[]byte{0},
		[]byte{byte(MsgSeqReq), 0, 0, 0, 1, 0, 0, 0, 0},
		[]byte{byte(MsgError), 0xFF, 0xFF},
	)
	return seeds
}

// FuzzProtocolDecode checks that Decode never panics on arbitrary bytes
// and that every accepted message survives an Encode→Decode round trip
// unchanged — the invariant the retry layer relies on when it re-sends a
// cached wire image. It also checks the reuse paths: DecodeInto over a
// Message already filled by a different message must accept exactly what
// Decode accepts and leave no stale field behind, and AppendEncode must
// append exactly Encode's bytes after an untouched prefix.
func FuzzProtocolDecode(f *testing.F) {
	var priors [][]byte // the seeds that decode: prior contents of a reused Message
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
		if _, err := Decode(seed); err == nil {
			priors = append(priors, seed)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		for _, prior := range priors {
			var reused Message
			if err := DecodeInto(&reused, prior); err != nil {
				t.Fatal(err)
			}
			rerr := DecodeInto(&reused, data)
			if (rerr == nil) != (err == nil) {
				t.Fatalf("DecodeInto after %v: err %v, Decode err %v (input %x)", MsgType(prior[0]), rerr, err, data)
			}
			if err == nil && !sameMessage(&reused, m) {
				t.Fatalf("DecodeInto after %v left stale state:\nreused %+v\nfresh  %+v\ninput %x", MsgType(prior[0]), reused, *m, data)
			}
		}
		if err != nil {
			return // malformed input rejected: fine
		}
		wire, err := m.Encode()
		if err != nil {
			t.Fatalf("decoded message does not re-encode: %v (input %x)", err, data)
		}
		back, err := Decode(wire)
		if err != nil {
			t.Fatalf("re-encoded message does not decode: %v (input %x)", err, data)
		}
		if !reflect.DeepEqual(m, back) {
			t.Fatalf("round trip not stable:\nfirst  %+v\nsecond %+v\ninput %x", m, back, data)
		}
		prefix := append(make([]byte, 0, len(data)+len(wire)), data...)
		out, err := m.AppendEncode(prefix)
		if err != nil {
			t.Fatalf("AppendEncode fails where Encode succeeded: %v", err)
		}
		if !bytes.Equal(out[:len(data)], data) || !bytes.Equal(out[len(data):], wire) {
			t.Fatalf("AppendEncode onto a %d-byte prefix:\ngot  %x\nwant %x%x", len(data), out, data, wire)
		}
	})
}

// sameMessage reports whether a and b carry the same message: equal
// scalar fields and equal slice contents, an empty slice matching nil
// (a reused Message keeps the capacity of fields its type lacks).
func sameMessage(a, b *Message) bool {
	if a.Type != b.Type || a.FrameIndex != b.FrameIndex || a.Steps != b.Steps || a.Arg != b.Arg ||
		a.MAC != b.MAC || a.Err != b.Err || a.Seq != b.Seq || a.Caps != b.Caps ||
		!slices.Equal(a.Words, b.Words) || !bytes.Equal(a.Data, b.Data) || !bytes.Equal(a.Sig, b.Sig) || !bytes.Equal(a.Inner, b.Inner) ||
		!slices.Equal(a.Frames, b.Frames) || !bytes.Equal(a.Comp, b.Comp) || len(a.Batch) != len(b.Batch) {
		return false
	}
	for i := range a.Batch {
		if a.Batch[i].Index != b.Batch[i].Index || !slices.Equal(a.Batch[i].Words, b.Batch[i].Words) {
			return false
		}
	}
	return true
}

package protocol

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"sacha/internal/device"
)

func roundTrip(t *testing.T, m *Message) *Message {
	t.Helper()
	data, err := m.Encode()
	if err != nil {
		t.Fatalf("encode %v: %v", m.Type, err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatalf("decode %v: %v", m.Type, err)
	}
	if back.Type != m.Type {
		t.Fatalf("type %v -> %v", m.Type, back.Type)
	}
	return back
}

func TestConfigRoundTrip(t *testing.T) {
	words := make([]uint32, device.FrameWords)
	for i := range words {
		words[i] = uint32(i * 7)
	}
	back := roundTrip(t, Config(12345, words))
	if back.FrameIndex != 12345 {
		t.Fatalf("index %d", back.FrameIndex)
	}
	for i, w := range back.Words {
		if w != words[i] {
			t.Fatalf("word %d mismatch", i)
		}
	}
}

func TestReadbackRoundTrip(t *testing.T) {
	back := roundTrip(t, Readback(28487))
	if back.FrameIndex != 28487 {
		t.Fatalf("index %d", back.FrameIndex)
	}
}

func TestSimpleMessages(t *testing.T) {
	roundTrip(t, Checksum())
	roundTrip(t, &Message{Type: MsgAck})
	roundTrip(t, &Message{Type: MsgSigChecksum})
	back := roundTrip(t, &Message{Type: MsgAppStep, Steps: 77})
	if back.Steps != 77 {
		t.Fatalf("steps %d", back.Steps)
	}
}

func TestMACValueRoundTrip(t *testing.T) {
	m := &Message{Type: MsgMACValue, Arg: 42}
	for i := range m.MAC {
		m.MAC[i] = byte(i)
	}
	back := roundTrip(t, m)
	if back.MAC != m.MAC || back.Arg != 42 {
		t.Fatal("MAC mismatch")
	}
}

func TestFrameDataRoundTripAndSize(t *testing.T) {
	words := make([]uint32, device.FrameWords)
	for i := range words {
		words[i] = uint32(i)
	}
	m := &Message{Type: MsgFrameData, FrameIndex: 28487, Words: words}
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != SizeFrameData {
		t.Fatalf("FrameData size %d, want %d", len(data), SizeFrameData)
	}
	back, err := Decode(data)
	if err != nil || back.FrameIndex != 28487 {
		t.Fatalf("decode: %v index %d", err, back.FrameIndex)
	}
	// The frame decodes as its big-endian bytes, and those bytes encode
	// back to the same wire form.
	if !bytes.Equal(back.Data, AppendWords(nil, words)) || len(back.Words) != 0 {
		t.Fatalf("decoded Data %x, Words %v", back.Data, back.Words)
	}
	if again, err := back.Encode(); err != nil || !bytes.Equal(again, data) {
		t.Fatalf("re-encode from Data: %x, %v", again, err)
	}
	if _, err := (&Message{Type: MsgFrameData, Data: back.Data[1:]}).Encode(); err == nil {
		t.Fatal("short Data accepted")
	}
	// 24-bit overflow must be rejected.
	m.FrameIndex = 1 << 24
	if _, err := m.Encode(); err == nil {
		t.Fatal("oversized 24-bit index accepted")
	}
}

func TestWireSizeConstants(t *testing.T) {
	words := make([]uint32, device.FrameWords)
	for _, tc := range []struct {
		m    *Message
		want int
	}{
		{Config(0, words), SizeICAPConfig},
		{Readback(0), SizeICAPReadback},
		{Checksum(), SizeMACChecksum},
		{&Message{Type: MsgFrameData, Words: words}, SizeFrameData},
		{&Message{Type: MsgMACValue}, SizeMACValue},
	} {
		data, err := tc.m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != tc.want {
			t.Errorf("%v encodes to %d bytes, want %d", tc.m.Type, len(data), tc.want)
		}
	}
}

func TestSigAndErrorRoundTrip(t *testing.T) {
	sig := make([]byte, 71)
	rand.New(rand.NewSource(1)).Read(sig)
	back := roundTrip(t, &Message{Type: MsgSigValue, Sig: sig})
	if string(back.Sig) != string(sig) {
		t.Fatal("sig mismatch")
	}
	back = roundTrip(t, Errorf("bad FAR %d", 9))
	if back.Err != "bad FAR 9" {
		t.Fatalf("err %q", back.Err)
	}
}

func TestEncodeErrors(t *testing.T) {
	if _, err := (&Message{Type: MsgICAPConfig, Words: make([]uint32, 3)}).Encode(); err == nil {
		t.Error("short frame accepted")
	}
	if _, err := (&Message{Type: MsgType(99)}).Encode(); err == nil {
		t.Error("unknown type accepted")
	}
	if _, err := (&Message{Type: MsgError, Err: strings.Repeat("x", 2000)}).Encode(); err == nil {
		t.Error("oversized error accepted")
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{byte(MsgICAPConfig)},
		{byte(MsgICAPConfig), 1, 2},
		{byte(MsgICAPReadback)},
		{byte(MsgMACChecksum), 1},
		{byte(MsgMACValue), 1, 2, 3},
		{byte(MsgSigValue)},
		{byte(MsgSigValue), 0, 5, 1},
		{byte(MsgError), 0},
		{byte(MsgError), 0, 9, 'x'},
		{99},
	}
	for i, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("case %d: malformed message accepted", i)
		}
	}
}

func TestTypeStrings(t *testing.T) {
	for _, tc := range []struct {
		t    MsgType
		want string
	}{
		{MsgICAPConfig, "ICAP_config"},
		{MsgICAPReadback, "ICAP_readback"},
		{MsgMACChecksum, "MAC_checksum"},
		{MsgFrameData, "Frame_data"},
		{MsgMACValue, "MAC_value"},
	} {
		if tc.t.String() != tc.want {
			t.Errorf("%d.String() = %q, want %q", tc.t, tc.t.String(), tc.want)
		}
	}
	if MsgType(200).String() == "" {
		t.Error("unknown type should stringify")
	}
}

// Property: random config messages round-trip.
func TestQuickConfigRoundTrip(t *testing.T) {
	f := func(idx uint32, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		words := make([]uint32, device.FrameWords)
		for i := range words {
			words[i] = rng.Uint32()
		}
		data, err := Config(int(idx), words).Encode()
		if err != nil {
			return false
		}
		back, err := Decode(data)
		if err != nil || back.FrameIndex != idx {
			return false
		}
		for i := range words {
			if back.Words[i] != words[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestScanOverflowRoundTrip: a scan answer may carry the empty overflow
// stream; a compressed configuration batch may not.
func TestScanOverflowRoundTrip(t *testing.T) {
	back := roundTrip(t, &Message{Type: MsgScanData, Frames: []uint32{4, 5}})
	if len(back.Comp) != 0 || !slices.Equal(back.Frames, []uint32{4, 5}) {
		t.Fatalf("overflow answer decoded as frames %v, %d payload bytes", back.Frames, len(back.Comp))
	}
	if _, err := (&Message{Type: MsgICAPConfigBatchC, Frames: []uint32{4}}).Encode(); err == nil {
		t.Fatal("compressed batch without payload encoded")
	}
	if _, err := Decode([]byte{byte(MsgICAPConfigBatchC), 1, 0, 0, 0, 4}); err == nil {
		t.Fatal("compressed batch without payload decoded")
	}
	if MaxScanComp+2+4*MaxScanFrames+SeqHeader != MaxWire {
		t.Fatalf("MaxScanComp %d does not fill MaxWire %d", MaxScanComp, MaxWire)
	}
}

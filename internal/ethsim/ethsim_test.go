package ethsim

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestCRC32AgainstStdlib(t *testing.T) {
	cases := [][]byte{
		nil,
		{0},
		[]byte("123456789"),
		make([]byte, 1500),
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		b := make([]byte, rng.Intn(400))
		rng.Read(b)
		cases = append(cases, b)
	}
	for _, c := range cases {
		if got, want := CRC32(c), crc32.ChecksumIEEE(c); got != want {
			t.Fatalf("CRC32(%d bytes) = %#08x, want %#08x", len(c), got, want)
		}
		if got, want := CRC32Serial(c), CRC32(c); got != want {
			t.Fatalf("bit-serial LFSR disagrees with CRC32: %#08x vs %#08x", got, want)
		}
	}
	// Seeded property: at every length from empty to past the MTU, the
	// FCS equals the bit-serial LFSR reference on random data.
	buf := make([]byte, 1600)
	rng.Read(buf)
	for n := 0; n <= len(buf); n++ {
		if got, want := CRC32(buf[:n]), CRC32Serial(buf[:n]); got != want {
			t.Fatalf("CRC32(%d random bytes) = %#08x, LFSR reference %#08x", n, got, want)
		}
	}
}

func TestCRC32KnownVector(t *testing.T) {
	// The classic check value for CRC-32/IEEE.
	if got := CRC32([]byte("123456789")); got != 0xCBF43926 {
		t.Fatalf("check value = %#08x, want 0xCBF43926", got)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	f := &Frame{
		Dst:       MAC{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
		Src:       MAC{2, 0, 0, 0, 0, 1},
		EtherType: EtherTypeSACHa,
		Payload:   []byte("hello sacha"),
	}
	wire, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if back.Dst != f.Dst || back.Src != f.Src || back.EtherType != f.EtherType {
		t.Fatal("header mismatch")
	}
	if string(back.Payload) != string(f.Payload) {
		t.Fatal("payload mismatch")
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	f := &Frame{EtherType: EtherTypeSACHa, Payload: make([]byte, 100)}
	wire, _ := f.Marshal()
	for _, pos := range []int{0, 7, 20, len(wire) - 1} {
		bad := append([]byte(nil), wire...)
		bad[pos] ^= 0x10
		if _, err := Unmarshal(bad); err == nil {
			t.Fatalf("corruption at byte %d accepted", pos)
		}
	}
	if _, err := Unmarshal(wire[:10]); err == nil {
		t.Fatal("short frame accepted")
	}
}

func TestMarshalRejectsJumbo(t *testing.T) {
	f := &Frame{Payload: make([]byte, MaxPayload+1)}
	if _, err := f.Marshal(); err == nil {
		t.Fatal("jumbo payload accepted")
	}
}

// TestAppendMarshalNoAlloc: AppendMarshal into a large-enough buffer
// allocates nothing, keeps the prefix, and appends exactly Marshal's
// bytes.
func TestAppendMarshalNoAlloc(t *testing.T) {
	f := &Frame{Dst: MAC{1}, Src: MAC{2}, EtherType: EtherTypeSACHa, Payload: make([]byte, 329)}
	rand.New(rand.NewSource(7)).Read(f.Payload)
	want, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 2*len(want))
	buf = append(buf, "prefix"...)
	got, err := f.AppendMarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:6]) != "prefix" || string(got[6:]) != string(want) {
		t.Fatal("AppendMarshal differs from prefix + Marshal")
	}
	if a := testing.AllocsPerRun(100, func() { f.AppendMarshal(buf[:0]) }); a != 0 {
		t.Fatalf("AppendMarshal into a large-enough buffer allocates %.1f objects, want 0", a)
	}
	if _, err := (&Frame{Payload: make([]byte, MaxPayload+1)}).AppendMarshal(buf[:0]); err == nil {
		t.Fatal("AppendMarshal accepted a jumbo payload")
	}
}

// TestParseRejectsJumbo: a frame with a valid FCS but a payload beyond
// MaxPayload is refused by both parsers — the bound Marshal enforces on
// the way out holds on the way in.
func TestParseRejectsJumbo(t *testing.T) {
	for _, n := range []int{MaxPayload, MaxPayload + 1} {
		wire := make([]byte, HeaderBytes+n)
		binary.BigEndian.PutUint16(wire[12:], EtherTypeSACHa)
		wire = binary.BigEndian.AppendUint32(wire, CRC32(wire))
		_, uerr := Unmarshal(wire)
		_, verr := View(wire)
		if ok := n <= MaxPayload; (uerr == nil) != ok || (verr == nil) != ok {
			t.Fatalf("%d-byte payload: Unmarshal err %v, View err %v, want accepted=%v", n, uerr, verr, ok)
		}
	}
}

// TestViewAliasesUnmarshalCopies: View returns the payload in place,
// Unmarshal a copy the caller owns.
func TestViewAliasesUnmarshalCopies(t *testing.T) {
	f := &Frame{Dst: MAC{1}, Src: MAC{2}, EtherType: EtherTypeSACHa, Payload: []byte("sacha")}
	wire, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	view, err := View(wire)
	if err != nil {
		t.Fatal(err)
	}
	owned, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if view.Dst != f.Dst || view.Src != f.Src || view.EtherType != f.EtherType || string(view.Payload) != "sacha" {
		t.Fatalf("View = %+v, want %+v", view, *f)
	}
	if a := testing.AllocsPerRun(100, func() { View(wire) }); a != 0 {
		t.Fatalf("View allocates %.1f objects per frame, want 0", a)
	}
	wire[HeaderBytes] = 'S'
	if string(view.Payload) != "Sacha" {
		t.Fatal("View payload does not alias the frame")
	}
	if string(owned.Payload) != "sacha" {
		t.Fatal("Unmarshal payload aliases the frame")
	}
}

func TestWireBytes(t *testing.T) {
	// A 5-byte payload (ICAP_readback / MAC_checksum command) is a
	// 43-byte wire event — the paper's A9 = 344 ns.
	if got := WireBytes(5); got != 43 {
		t.Fatalf("WireBytes(5) = %d, want 43", got)
	}
	// A 328-byte payload (frame sendback: 24-bit-index header + 81 words)
	// gives the byte count behind the paper's A8 = 2,928 ns.
	if got := WireBytes(328); got != 366 {
		t.Fatalf("WireBytes(328) = %d, want 366", got)
	}
	// A 21-byte payload (MAC sendback) is 59 bytes — A10 = 472 ns.
	if got := WireBytes(21); got != 59 {
		t.Fatalf("WireBytes(21) = %d, want 59", got)
	}
}

func TestWireTimeGigabit(t *testing.T) {
	if got := WireTime(328); got != 366*NsPerByte*time.Nanosecond {
		t.Fatalf("WireTime(328) = %v", got)
	}
	// Must be within 10%% of the paper's measured A8 (2,928 ns — the
	// prover's frame sendback).
	a8 := WireTime(328)
	if a8 < 2600*time.Nanosecond || a8 > 3200*time.Nanosecond {
		t.Fatalf("A8 wire time %v outside the paper's ballpark", a8)
	}
}

// Property: marshal/unmarshal round-trips random frames.
func TestQuickFrameRoundTrip(t *testing.T) {
	f := func(dst, src [6]byte, et uint16, seed int64, n16 uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		payload := make([]byte, int(n16)%MaxPayload)
		rng.Read(payload)
		fr := &Frame{Dst: dst, Src: src, EtherType: et, Payload: payload}
		wire, err := fr.Marshal()
		if err != nil {
			return false
		}
		back, err := Unmarshal(wire)
		if err != nil {
			return false
		}
		if back.Dst != dst || back.Src != src || back.EtherType != et || len(back.Payload) != len(payload) {
			return false
		}
		for i := range payload {
			if back.Payload[i] != payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

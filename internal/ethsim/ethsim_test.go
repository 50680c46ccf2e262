package ethsim

import (
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

package cmac

import (
	"bytes"
	"crypto/aes"
	"math/rand"
	"testing"
)

// newPortable returns a MAC keyed with key that runs the portable chain
// over crypto/aes, whatever the CPU.
func newPortable(t testing.TB, key []byte) *MAC {
	t.Helper()
	block, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	return newWithBlock(block)
}

// TestKernelMatchesPortable is the differential of the AES-NI kernel:
// under one random key, at every message length from 0 to 4096 bytes,
// the MAC New returns and the portable chain give the same tag and the
// same block count, each fed under its own random Update split.
func TestKernelMatchesPortable(t *testing.T) {
	if !haveKernel {
		t.Skip("no AES-NI kernel in this build or on this CPU")
	}
	rng := rand.New(rand.NewSource(197))
	key := make([]byte, 16)
	rng.Read(key)
	data := make([]byte, 4096)
	rng.Read(data)
	for n := 0; n <= len(data); n++ {
		kernel, err := New(key)
		if err != nil {
			t.Fatal(err)
		}
		portable := newPortable(t, key)
		got, want := updateSplit(kernel, data[:n], rng), updateSplit(portable, data[:n], rng)
		if got != want {
			t.Fatalf("len %d: kernel MAC %x, portable %x", n, got, want)
		}
		if kernel.Blocks() != portable.Blocks() {
			t.Fatalf("len %d: kernel %d AES blocks, portable %d", n, kernel.Blocks(), portable.Blocks())
		}
	}
}

// TestKernelKeySchedule pins the kernel's key expansion to the
// FIPS-197 Appendix A.1 expansion of the key 2b7e1516…09cf4f3c, words
// w0 to w43.
func TestKernelKeySchedule(t *testing.T) {
	if !haveKernel {
		t.Skip("no AES-NI kernel in this build or on this CPU")
	}
	want := unhex(t, "2b7e151628aed2a6abf7158809cf4f3c"+
		"a0fafe1788542cb123a339392a6c7605"+
		"f2c295f27a96b9435935807a7359f67f"+
		"3d80477d4716fe3e1e237e446d7a883b"+
		"ef44a541a8525b7fb671253bdb0bad00"+
		"d4d1c6f87c839d87caf2b8bc11f915bc"+
		"6d88a37a110b3efddbf98641ca0093fd"+
		"4e54f70e5f5fc9f384a64fb24ea6dc4f"+
		"ead27321b58dbad2312bf5607f8d292f"+
		"ac7766f319fadc2128d12941575c006e"+
		"d014f9a8c9ee2589e13f0cc8b6630ca6")
	var rk [176]byte
	expandKey((*[16]byte)(unhex(t, rfcKey)), &rk)
	for r := 0; r < 11; r++ {
		if got := rk[16*r : 16*r+16]; !bytes.Equal(got, want[16*r:16*r+16]) {
			t.Errorf("round key %d = %x, want %x", r, got, want[16*r:16*r+16])
		}
	}
}

// TestKernelAllocs pins the kernel path at one allocation per MAC, the
// MAC itself: no crypto/aes cipher and no CBC BlockMode beside it.
func TestKernelAllocs(t *testing.T) {
	if !haveKernel {
		t.Skip("no AES-NI kernel in this build or on this CPU")
	}
	key := unhex(t, rfcKey)
	frame := make([]byte, 324)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := New(key); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("New: %v allocations, want at most 1", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := Compute(key, frame); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("Compute: %v allocations, want at most 1", n)
	}
}

var sinkTag [Size]byte

// BenchmarkUpdateFrame measures one read-back frame's MAC update, 324
// bytes (81 words), on the kernel New runs and on the portable chain.
func BenchmarkUpdateFrame(b *testing.B) {
	key := unhex(b, rfcKey)
	frame := make([]byte, 324)
	rand.New(rand.NewSource(1)).Read(frame)
	run := func(b *testing.B, m *MAC) {
		b.SetBytes(int64(len(frame)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Update(frame)
		}
		sinkTag = m.Sum()
	}
	b.Run("kernel", func(b *testing.B) {
		if !haveKernel {
			b.Skip("no AES-NI kernel in this build or on this CPU")
		}
		m, err := New(key)
		if err != nil {
			b.Fatal(err)
		}
		run(b, m)
	})
	b.Run("portable", func(b *testing.B) { run(b, newPortable(b, key)) })
}

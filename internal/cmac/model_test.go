package cmac

import (
	"crypto/cipher"
	"crypto/subtle"
	"math/rand"
	"testing"

	"sacha/internal/aescore"
)

var _ cipher.Block = (*aescore.Core)(nil)

// newModel returns a MAC whose portable chain runs over the aescore
// hardware model: the reference the production MAC must match bit for
// bit.
func newModel(t testing.TB, key []byte) *MAC {
	t.Helper()
	core, err := aescore.New(key)
	if err != nil {
		t.Fatal(err)
	}
	return newWithBlock(core)
}

// updateSplit feeds data to m in chunks whose boundaries come from rng,
// then returns the tag. Most chunks are 0..40 bytes, so empty updates
// and block-straddling cuts both occur; one in four is up to three
// 324-byte frames plus a partial block, so one Update chains many whole
// blocks at once.
func updateSplit(m *MAC, data []byte, rng *rand.Rand) [Size]byte {
	for len(data) > 0 {
		n := rng.Intn(41)
		if rng.Intn(4) == 0 {
			n = rng.Intn(3*324 + 17)
		}
		n = min(n, len(data))
		m.Update(data[:n])
		data = data[n:]
	}
	return m.Sum()
}

// refCMAC is RFC 4493 §2.4 written out block by block over the aescore
// model: the reference the chained Update must match, independent of
// the MAC's buffering.
func refCMAC(t testing.TB, key, data []byte) [Size]byte {
	t.Helper()
	core, err := aescore.New(key)
	if err != nil {
		t.Fatal(err)
	}
	var l, k1, k2, x, last [16]byte
	core.Encrypt(l[:], l[:])
	shiftLeft(&k1, &l)
	shiftLeft(&k2, &k1)
	n := (len(data) + 15) / 16
	if n == 0 {
		n = 1
	}
	for i := 0; i < n-1; i++ {
		subtle.XORBytes(x[:], x[:], data[16*i:16*i+16])
		core.Encrypt(x[:], x[:])
	}
	tail := data[16*(n-1):]
	copy(last[:], tail)
	if len(tail) == 16 {
		subtle.XORBytes(last[:], last[:], k1[:])
	} else {
		last[len(tail)] = 0x80
		subtle.XORBytes(last[:], last[:], k2[:])
	}
	subtle.XORBytes(x[:], x[:], last[:])
	core.Encrypt(x[:], x[:])
	return x
}

// TestMatchesModel is the differential: for a fresh random key at every
// message length from 0 to 4096 bytes, the MAC New returns (the AES-NI
// kernel where it runs, else the portable chain over crypto/aes) and the
// aescore-model MAC produce the same tag and the same block count, each
// fed under its own random Update split.
func TestMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(4493))
	data := make([]byte, 4096)
	rng.Read(data)
	key := make([]byte, 16)
	for n := 0; n <= len(data); n++ {
		rng.Read(key)
		fast, err := New(key)
		if err != nil {
			t.Fatal(err)
		}
		model := newModel(t, key)
		got, want := updateSplit(fast, data[:n], rng), updateSplit(model, data[:n], rng)
		if got != want {
			t.Fatalf("len %d key %x: MAC %x, model %x", n, key, got, want)
		}
		if ref := refCMAC(t, key, data[:n]); got != ref {
			t.Fatalf("len %d key %x: MAC %x, block-by-block reference %x", n, key, got, ref)
		}
		if fast.Blocks() != model.Blocks() {
			t.Fatalf("len %d: %d AES blocks, model %d", n, fast.Blocks(), model.Blocks())
		}
	}
}

func FuzzCMACMatchesModel(f *testing.F) {
	f.Add(unhex(f, rfcKey), []byte{}, int64(0))
	f.Add(unhex(f, rfcKey), unhex(f, "6bc1bee22e409f96e93d7e117393172a"), int64(1))
	f.Add(make([]byte, 16), make([]byte, 324), int64(2))
	f.Fuzz(func(t *testing.T, key, data []byte, split int64) {
		if len(key) != 16 {
			return
		}
		fast, err := New(key)
		if err != nil {
			t.Fatal(err)
		}
		model := newModel(t, key)
		got := updateSplit(fast, data, rand.New(rand.NewSource(split)))
		want := updateSplit(model, data, rand.New(rand.NewSource(^split)))
		if got != want || fast.Blocks() != model.Blocks() {
			t.Fatalf("MAC %x (%d blocks), model %x (%d blocks)", got, fast.Blocks(), want, model.Blocks())
		}
		if ref := refCMAC(t, key, data); got != ref {
			t.Fatalf("MAC %x, block-by-block reference %x", got, ref)
		}
	})
}

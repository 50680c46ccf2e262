package cmac

import (
	"crypto/cipher"
	"math/rand"
	"testing"

	"sacha/internal/aescore"
)

var _ cipher.Block = (*aescore.Core)(nil)

// newModel returns a MAC over the aescore hardware model instead of
// crypto/aes: the reference the production MAC must match bit for bit.
func newModel(t testing.TB, key []byte) *MAC {
	t.Helper()
	core, err := aescore.New(key)
	if err != nil {
		t.Fatal(err)
	}
	return newWithBlock(core)
}

// updateSplit feeds data to m in chunks whose boundaries come from rng
// (chunk sizes 0..40, so empty updates and block-straddling cuts both
// occur), then returns the tag.
func updateSplit(m *MAC, data []byte, rng *rand.Rand) [Size]byte {
	for len(data) > 0 {
		n := min(rng.Intn(41), len(data))
		m.Update(data[:n])
		data = data[n:]
	}
	return m.Sum()
}

// TestMatchesModel is the differential: for a fresh random key at every
// message length from 0 to 4096 bytes, the crypto/aes MAC and the
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
			t.Fatalf("len %d key %x: crypto/aes MAC %x, model %x", n, key, got, want)
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
			t.Fatalf("crypto/aes MAC %x (%d blocks), model %x (%d blocks)", got, fast.Blocks(), want, model.Blocks())
		}
	})
}

package cmac

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"
)

func unhex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex: %v", err)
	}
	return b
}

var rfcKey = "2b7e151628aed2a6abf7158809cf4f3c"

// RFC 4493 §4 test vectors, on the MAC New returns, on the portable
// chain over crypto/aes and on the aescore model.
func TestRFC4493Vectors(t *testing.T) {
	msg := unhex(t, "6bc1bee22e409f96e93d7e117393172a"+
		"ae2d8a571e03ac9c9eb76fac45af8e51"+
		"30c81c46a35ce411e5fbc1191a0a52ef"+
		"f69f2445df4f9b17ad2b417be66c3710")
	cases := []struct {
		n    int
		want string
	}{
		{0, "bb1d6929e95937287fa37d129b756746"},
		{16, "070a16b46b4d4144f79bdd9dd04a287c"},
		{40, "dfa66747de9ae63030ca32611497c827"},
		{64, "51f0bebf7e3b9d92fc49741779363cfe"},
	}
	key := unhex(t, rfcKey)
	for _, c := range cases {
		got, err := Compute(key, msg[:c.n])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:], unhex(t, c.want)) {
			t.Errorf("len %d: got %x, want %s", c.n, got, c.want)
		}
		for name, m := range map[string]*MAC{"portable": newPortable(t, key), "model": newModel(t, key)} {
			m.Update(msg[:c.n])
			if got := m.Sum(); !bytes.Equal(got[:], unhex(t, c.want)) {
				t.Errorf("%s, len %d: got %x, want %s", name, c.n, got, c.want)
			}
		}
	}
}

// RFC 4493 §2.3 subkey vectors.
func TestSubkeys(t *testing.T) {
	m, err := New(unhex(t, rfcKey))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.k1[:], unhex(t, "fbeed618357133667c85e08f7236a8de")) {
		t.Errorf("K1 = %x", m.k1)
	}
	if !bytes.Equal(m.k2[:], unhex(t, "f7ddac306ae266ccf90bc11ee46d513b")) {
		t.Errorf("K2 = %x", m.k2)
	}
}

func TestBadKey(t *testing.T) {
	if _, err := New(make([]byte, 8)); err == nil {
		t.Error("short key accepted")
	}
	if _, err := Compute(make([]byte, 8), nil); err == nil {
		t.Error("Compute with short key accepted")
	}
}

// Property: streaming over arbitrary chunk boundaries equals one-shot.
func TestQuickStreamingEqualsOneShot(t *testing.T) {
	key := unhex(t, rfcKey)
	f := func(seed int64, n16 uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(n16 % 700)
		data := make([]byte, n)
		rng.Read(data)
		want, _ := Compute(key, data)
		m, _ := New(key)
		for off := 0; off < n; {
			chunk := 1 + rng.Intn(90)
			if off+chunk > n {
				chunk = n - off
			}
			m.Update(data[off : off+chunk])
			off += chunk
		}
		return Equal(m.Sum(), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// The paper's per-frame update pattern: 28 frames of 324 bytes streamed
// frame-by-frame must equal the one-shot MAC over the concatenation.
func TestPerFrameUpdatePattern(t *testing.T) {
	key := unhex(t, rfcKey)
	rng := rand.New(rand.NewSource(7))
	frames := make([][]byte, 28)
	var all []byte
	for i := range frames {
		frames[i] = make([]byte, 324)
		rng.Read(frames[i])
		all = append(all, frames[i]...)
	}
	m, _ := New(key) // Init MAC_K
	for _, f := range frames {
		m.Update(f) // Update MAC_K step i
	}
	got := m.Sum() // finalize MAC_K
	want, _ := Compute(key, all)
	if !Equal(got, want) {
		t.Fatal("per-frame streaming differs from one-shot")
	}
}

func TestResetReuse(t *testing.T) {
	key := unhex(t, rfcKey)
	m, _ := New(key)
	m.Update([]byte("hello"))
	first := m.Sum()
	m.Reset()
	m.Update([]byte("hello"))
	second := m.Sum()
	if !Equal(first, second) {
		t.Fatal("Reset does not restore initial state")
	}
	m.Reset()
	m.Update([]byte("world"))
	third := m.Sum()
	if Equal(first, third) {
		t.Fatal("different messages produced equal MACs")
	}
}

func TestSumTwicePanics(t *testing.T) {
	m, _ := New(make([]byte, 16))
	m.Sum()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double Sum")
		}
	}()
	m.Sum()
}

func TestUpdateAfterSumPanics(t *testing.T) {
	m, _ := New(make([]byte, 16))
	m.Sum()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Update after Sum")
		}
	}()
	m.Update([]byte{1})
}

func TestBlocksAccounting(t *testing.T) {
	m, _ := New(make([]byte, 16))
	if m.Blocks() != 1 { // subkey generation
		t.Fatalf("Blocks after New = %d", m.Blocks())
	}
	m.Update(make([]byte, 48)) // 3 blocks, last held back
	m.Sum()
	// 1 subkey + 2 intermediate + 1 final = 4
	if m.Blocks() != 4 {
		t.Fatalf("Blocks = %d, want 4", m.Blocks())
	}
}

// Property: MACs differ when a single message bit flips (no trivial
// collisions across our frame sizes).
func TestQuickBitFlipChangesMAC(t *testing.T) {
	key := unhex(t, rfcKey)
	f := func(seed int64, pos uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 324)
		rng.Read(data)
		a, _ := Compute(key, data)
		i := int(pos) % (324 * 8)
		data[i/8] ^= 1 << (uint(i) % 8)
		b, _ := Compute(key, data)
		return !Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEqualConstantTimeSemantics(t *testing.T) {
	a := [Size]byte{1}
	b := [Size]byte{1}
	if !Equal(a, b) {
		t.Fatal("equal tags compare unequal")
	}
	b[15] ^= 0x80
	if Equal(a, b) {
		t.Fatal("unequal tags compare equal")
	}
}

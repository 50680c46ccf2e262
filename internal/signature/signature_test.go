package signature

import (
	"crypto/sha256"
	"math/rand"
	"testing"
)

func TestSignVerify(t *testing.T) {
	s, err := Generate(nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewVerifier(s.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	digest := sha256.Sum256([]byte("attestation transcript"))
	sig, err := s.Sign(digest[:])
	if err != nil {
		t.Fatal(err)
	}
	if !v.Verify(digest[:], sig) {
		t.Fatal("valid signature rejected")
	}
	other := sha256.Sum256([]byte("tampered transcript"))
	if v.Verify(other[:], sig) {
		t.Fatal("signature accepted for wrong digest")
	}
	sig[len(sig)-1] ^= 1
	if v.Verify(digest[:], sig) {
		t.Fatal("mangled signature accepted")
	}
}

func TestWrongKeyRejected(t *testing.T) {
	a, _ := Generate(nil)
	b, _ := Generate(nil)
	v, _ := NewVerifier(b.PublicKey())
	digest := sha256.Sum256([]byte("x"))
	sig, _ := a.Sign(digest[:])
	if v.Verify(digest[:], sig) {
		t.Fatal("signature from another device accepted")
	}
}

func TestBadInputs(t *testing.T) {
	s, _ := Generate(nil)
	if _, err := s.Sign([]byte("short")); err == nil {
		t.Error("short digest accepted for signing")
	}
	if _, err := NewVerifier([]byte{1, 2, 3}); err == nil {
		t.Error("garbage public key accepted")
	}
	v, _ := NewVerifier(s.PublicKey())
	if v.Verify([]byte("short"), nil) {
		t.Error("short digest accepted for verification")
	}
}

func TestTranscript(t *testing.T) {
	a := NewTranscript()
	b := NewTranscript()
	chunks := [][]byte{[]byte("frame-0"), []byte("frame-1"), []byte("nonce")}
	for _, c := range chunks {
		a.Absorb(c)
	}
	b.Absorb([]byte("frame-0frame-1nonce"))
	if string(a.Digest()) != string(b.Digest()) {
		t.Fatal("transcript not chunk-invariant")
	}
	a.Reset()
	if string(a.Digest()) == string(b.Digest()) {
		t.Fatal("reset did not clear transcript")
	}
}

func TestDeterministicGenerate(t *testing.T) {
	// Generation from a deterministic reader must be reproducible — the
	// device re-derives its key at boot.
	a, err := Generate(rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if string(a.PublicKey()) != string(b.PublicKey()) {
		t.Fatal("the same seeded reader produced two different key pairs")
	}
}

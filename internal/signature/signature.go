// Package signature implements the paper's future-work extension: "add a
// signature mechanism to the system when it is not possible to exchange a
// secret key between the prover and the verifier before deployment"
// (paper §8).
//
// The device holds an ECDSA P-256 key pair whose private half is derived
// inside the device (in a real deployment, from the PUF); only the public
// key is enrolled with the verifier. The attestation transcript — every
// frame read back, in order — is hashed with SHA-256 and signed, replacing
// the AES-CMAC when no symmetric key could be pre-shared.
package signature

import (
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"io"
	"math/big"
)

// Signer holds the device-side private key.
type Signer struct {
	priv *ecdsa.PrivateKey
}

// Generate creates a P-256 key pair from rng. Pass nil to use
// crypto/rand. The key is a pure function of the 40 bytes read from rng,
// so a device re-derives the same key at every boot from the same seed
// — crypto/ecdsa.GenerateKey does not promise that for a non-default
// reader, as it may consume an extra random byte.
func Generate(rng io.Reader) (*Signer, error) {
	if rng == nil {
		rng = rand.Reader
	}
	// d = c mod (N−1) + 1 over 64 bits more than N's size, so d is
	// uniform in [1, N−1] up to a 2^-64 bias (FIPS 186-5 A.2.1).
	var seed [40]byte
	if _, err := io.ReadFull(rng, seed[:]); err != nil {
		return nil, fmt.Errorf("signature: %w", err)
	}
	curve := elliptic.P256()
	nMinus1 := new(big.Int).Sub(curve.Params().N, big.NewInt(1))
	d := new(big.Int).SetBytes(seed[:])
	d.Mod(d, nMinus1).Add(d, big.NewInt(1))
	key, err := ecdh.P256().NewPrivateKey(d.FillBytes(make([]byte, 32)))
	if err != nil {
		return nil, fmt.Errorf("signature: %w", err)
	}
	pub := key.PublicKey().Bytes() // uncompressed point: 0x04 || X || Y
	return &Signer{priv: &ecdsa.PrivateKey{
		PublicKey: ecdsa.PublicKey{
			Curve: curve,
			X:     new(big.Int).SetBytes(pub[1:33]),
			Y:     new(big.Int).SetBytes(pub[33:]),
		},
		D: d,
	}}, nil
}

// PublicKey returns the uncompressed-point encoding of the public key,
// the blob the verifier stores at enrollment.
func (s *Signer) PublicKey() []byte {
	return elliptic.Marshal(elliptic.P256(), s.priv.PublicKey.X, s.priv.PublicKey.Y)
}

// Sign signs a transcript digest and returns an ASN.1 DER signature.
func (s *Signer) Sign(digest []byte) ([]byte, error) {
	if len(digest) != sha256.Size {
		return nil, fmt.Errorf("signature: digest must be %d bytes, got %d", sha256.Size, len(digest))
	}
	sig, err := ecdsa.SignASN1(rand.Reader, s.priv, digest)
	if err != nil {
		return nil, fmt.Errorf("signature: %w", err)
	}
	return sig, nil
}

// Verifier holds the verifier-side public key.
type Verifier struct {
	pub *ecdsa.PublicKey
}

// NewVerifier parses an enrolled public key blob.
func NewVerifier(pubKey []byte) (*Verifier, error) {
	x, y := elliptic.Unmarshal(elliptic.P256(), pubKey)
	if x == nil {
		return nil, fmt.Errorf("signature: invalid public key encoding")
	}
	return &Verifier{pub: &ecdsa.PublicKey{Curve: elliptic.P256(), X: x, Y: y}}, nil
}

// Verify checks an ASN.1 signature over a transcript digest.
func (v *Verifier) Verify(digest, sig []byte) bool {
	if len(digest) != sha256.Size {
		return false
	}
	return ecdsa.VerifyASN1(v.pub, digest, sig)
}

// Transcript accumulates the attestation transcript hash on either side.
type Transcript struct {
	h interface {
		io.Writer
		Sum([]byte) []byte
		Reset()
	}
}

// NewTranscript returns an empty transcript.
func NewTranscript() *Transcript {
	return &Transcript{h: sha256.New()}
}

// Absorb mixes data (a read-back frame, a nonce) into the transcript.
func (t *Transcript) Absorb(data []byte) {
	t.h.Write(data)
}

// Digest returns the current transcript digest.
func (t *Transcript) Digest() []byte {
	return t.h.Sum(nil)
}

// Reset clears the transcript for a fresh attestation.
func (t *Transcript) Reset() { t.h.Reset() }

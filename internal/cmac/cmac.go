// Package cmac implements AES-CMAC (RFC 4493).
//
// The SACHa prover computes the MAC incrementally: Init once, one Update
// per configuration frame read back through the ICAP (28,488 updates on
// the XC6VLX240T), then Finalize (paper Fig. 9). The streaming interface
// mirrors that structure and additionally tracks the AES block count so
// the timing model can charge MAC cycles.
//
// The MAC bytes are computed with crypto/aes (constant-time, and
// hardware-accelerated where the CPU has AES instructions). The modelled
// hardware cost is separate: the timing model charges
// aescore.CyclesPerBlock cycles for each of the Blocks() AES invocations
// of the core that package aescore models, and tests hold this package
// bit-identical to a CMAC over that reference model.
package cmac

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"fmt"
)

// Size is the MAC length in bytes (full-width AES-CMAC tag).
const Size = 16

// MAC is a streaming AES-CMAC computation.
type MAC struct {
	block  cipher.Block
	k1, k2 [16]byte
	x      [16]byte // running CBC state
	buf    [16]byte // pending partial block
	bufLen int
	blocks int64 // AES invocations so far (for the cycle model)
	done   bool
}

// New returns a MAC keyed with the 16-byte key.
func New(key []byte) (*MAC, error) {
	if len(key) != 16 {
		return nil, fmt.Errorf("cmac: key must be 16 bytes, got %d", len(key))
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("cmac: %w", err)
	}
	return newWithBlock(block), nil
}

// newWithBlock returns a MAC over an already keyed AES-128 block cipher;
// tests use it to run the MAC on the aescore reference model.
func newWithBlock(block cipher.Block) *MAC {
	m := &MAC{block: block}
	// Subkey generation (RFC 4493 §2.3): L = AES-128(K, 0^128),
	// K1 = L<<1 (xor Rb on carry), K2 = K1<<1 (xor Rb on carry).
	// X is still zero, so it serves as the scratch for L.
	block.Encrypt(m.x[:], m.x[:])
	m.blocks++
	shiftLeft(&m.k1, &m.x)
	shiftLeft(&m.k2, &m.k1)
	m.x = [16]byte{}
	return m
}

const rb = 0x87

// shiftLeft sets dst = src << 1, xoring Rb into the last byte if the
// shifted-out bit was set.
func shiftLeft(dst, src *[16]byte) {
	var carry byte
	for i := 15; i >= 0; i-- {
		b := src[i]
		dst[i] = b<<1 | carry
		carry = b >> 7
	}
	if carry != 0 {
		dst[15] ^= rb
	}
}

// Reset restarts the computation under the same key (new Init step).
func (m *MAC) Reset() {
	m.x = [16]byte{}
	m.buf = [16]byte{}
	m.bufLen = 0
	m.done = false
}

// Update absorbs data. It may be called any number of times before Sum.
func (m *MAC) Update(data []byte) {
	if m.done {
		panic("cmac: Update after Sum; call Reset first")
	}
	for len(data) > 0 {
		// Keep at least one byte pending so the final block can be
		// treated specially in Sum.
		if m.bufLen == 16 {
			m.cipherBlock(m.buf[:])
			m.bufLen = 0
		}
		// Whole blocks go straight from data to the cipher.
		for m.bufLen == 0 && len(data) > 16 {
			m.cipherBlock(data[:16])
			data = data[16:]
		}
		n := copy(m.buf[m.bufLen:], data)
		m.bufLen += n
		data = data[n:]
	}
}

// cipherBlock runs X = AES(K, X xor block).
func (m *MAC) cipherBlock(block []byte) {
	subtle.XORBytes(m.x[:], m.x[:], block)
	m.block.Encrypt(m.x[:], m.x[:])
	m.blocks++
}

// Sum finalizes the MAC and returns the 16-byte tag. The computation must
// be Reset before reuse.
func (m *MAC) Sum() [Size]byte {
	if m.done {
		panic("cmac: Sum called twice; call Reset first")
	}
	m.done = true
	// The last block is XORed with K1 when complete, else padded 10*
	// and XORed with K2.
	key := &m.k1
	if m.bufLen < 16 {
		clear(m.buf[m.bufLen:])
		m.buf[m.bufLen] = 0x80
		key = &m.k2
	}
	subtle.XORBytes(m.buf[:], m.buf[:], key[:])
	m.cipherBlock(m.buf[:])
	return m.x
}

// Blocks returns the number of AES block operations performed, including
// subkey generation. The SACHa timing model charges
// aescore.CyclesPerBlock cycles per block.
func (m *MAC) Blocks() int64 { return m.blocks }

// Compute is a one-shot convenience: AES-CMAC(key, data).
func Compute(key, data []byte) ([Size]byte, error) {
	m, err := New(key)
	if err != nil {
		return [Size]byte{}, err
	}
	m.Update(data)
	return m.Sum(), nil
}

// Equal compares two tags in constant time.
func Equal(a, b [Size]byte) bool {
	var v byte
	for i := 0; i < Size; i++ {
		v |= a[i] ^ b[i]
	}
	return v == 0
}

// Package cmac implements AES-CMAC (RFC 4493).
//
// The SACHa prover computes the MAC incrementally: Init once, one Update
// per configuration frame read back through the ICAP (28,488 updates on
// the XC6VLX240T), then Finalize (paper Fig. 9). The streaming interface
// mirrors that structure and additionally tracks the AES block count so
// the timing model can charge MAC cycles.
//
// On amd64 CPUs with AES-NI, New runs an assembly CBC-MAC kernel
// (cmac_amd64.s): it expands the key schedule once with AESKEYGENASSIST,
// and each Update absorbs the held block and every whole block of the
// caller's bytes behind it in one call, with the 11 round keys in
// registers and no copy of the input. Elsewhere (other GOARCHes, CPUs
// without AES-NI, the purego build tag) the same chain runs one
// crypto/aes Block.Encrypt per block; tests also run it over the
// aescore model. The modelled hardware cost is separate: the timing
// model charges aescore.CyclesPerBlock cycles for each of the Blocks()
// AES invocations of the core that package aescore models, and tests
// hold both paths bit-identical to a CMAC over that reference model.
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
	// block is the cipher of the portable chain; nil when the kernel
	// runs over the round keys rk.
	block  cipher.Block
	rk     [176]byte // AES-128 key schedule, 11 round keys
	x      [16]byte  // running CBC state
	k1, k2 [16]byte
	buf    [16]byte // pending final-candidate block
	bufLen int
	blocks int64 // AES invocations so far (for the cycle model)
	done   bool
}

// New returns a MAC keyed with the 16-byte key.
func New(key []byte) (*MAC, error) {
	if len(key) != 16 {
		return nil, fmt.Errorf("cmac: key must be 16 bytes, got %d", len(key))
	}
	if !haveKernel {
		block, err := aes.NewCipher(key)
		if err != nil {
			return nil, fmt.Errorf("cmac: %w", err)
		}
		return newWithBlock(block), nil
	}
	m := &MAC{}
	expandKey((*[16]byte)(key), &m.rk)
	m.subkeys()
	return m, nil
}

// newWithBlock returns a MAC that runs the portable chain over an
// already keyed AES-128 block cipher; tests use it to run the MAC on the
// aescore reference model and on crypto/aes.
func newWithBlock(block cipher.Block) *MAC {
	m := &MAC{block: block}
	m.subkeys()
	return m
}

// subkeys runs the subkey generation of RFC 4493 §2.3 on a fresh MAC:
// L = AES-128(K, 0^128), K1 = L<<1 (xor Rb on carry), K2 = K1<<1 (xor
// Rb on carry). L is the chain's first block, absorbed from the still
// zero state and pending block; the state is then zeroed again.
func (m *MAC) subkeys() {
	m.absorb(nil)
	shiftLeft(&m.k1, &m.x)
	shiftLeft(&m.k2, &m.k1)
	m.x = [16]byte{}
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
	m.bufLen = 0
	m.done = false
}

// Update absorbs data. It may be called any number of times before Sum.
// The last block seen is always held back in buf, so that Sum can treat
// it specially; everything before it goes through the CBC chain.
func (m *MAC) Update(data []byte) {
	if m.done {
		panic("cmac: Update after Sum; call Reset first")
	}
	n := copy(m.buf[m.bufLen:], data)
	m.bufLen += n
	data = data[n:]
	if len(data) == 0 {
		return
	}
	// More data follows a full pending block, so that block is not the
	// last: chain it and the whole blocks of data behind it, keeping at
	// least one byte back.
	k := (len(data) - 1) / 16 * 16
	m.absorb(data[:k])
	m.bufLen = copy(m.buf[:], data[k:])
}

// absorb runs X = AES(K, X xor block) over the pending block, then over
// each whole block of src, read in place.
func (m *MAC) absorb(src []byte) {
	m.blocks += 1 + int64(len(src)/16)
	if m.block == nil {
		cbcMAC(&m.rk, &m.x, &m.buf, src)
		return
	}
	subtle.XORBytes(m.x[:], m.x[:], m.buf[:])
	m.block.Encrypt(m.x[:], m.x[:])
	for ; len(src) >= 16; src = src[16:] {
		subtle.XORBytes(m.x[:], m.x[:], src[:16])
		m.block.Encrypt(m.x[:], m.x[:])
	}
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
	m.absorb(nil)
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

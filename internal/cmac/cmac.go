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

// MAC is a streaming AES-CMAC computation. The CBC chain runs through
// one cipher.BlockMode, so an Update absorbs every whole block it can in
// one CryptBlocks call instead of one Block.Encrypt per block.
type MAC struct {
	cbc    cipher.BlockMode // CBC encrypter; its IV is the running state X
	k1, k2 [16]byte
	buf    [16]byte // pending final-candidate block
	bufLen int
	// chain stages the pending block and the whole blocks behind it for
	// one in-place CryptBlocks call.
	chain  [chainBlocks * 16]byte
	blocks int64 // AES invocations so far (for the cycle model)
	done   bool
}

// chainBlocks is how many blocks one CryptBlocks call absorbs at most:
// the held block plus the up to 20 whole blocks a 324-byte frame adds
// behind it, so each read-back frame takes one call.
const chainBlocks = 21

// ivSetter is implemented by the standard library's CBC encrypters; it
// rewinds the chain to a zero IV on Reset without a new allocation.
type ivSetter interface{ SetIV([]byte) }

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
	m := &MAC{}
	// Subkey generation (RFC 4493 §2.3): L = AES-128(K, 0^128),
	// K1 = L<<1 (xor Rb on carry), K2 = K1<<1 (xor Rb on carry). The
	// pending block is still zero, so it serves as the scratch for L and
	// then, zeroed again, as the chain's initial IV.
	block.Encrypt(m.buf[:], m.buf[:])
	m.blocks++
	shiftLeft(&m.k1, &m.buf)
	shiftLeft(&m.k2, &m.k1)
	m.buf = [16]byte{}
	m.cbc = cipher.NewCBCEncrypter(block, m.buf[:])
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
	var zero [16]byte
	m.cbc.(ivSetter).SetIV(zero[:])
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
	for len(data) > 0 {
		// More data follows a full pending block, so that block is not
		// the last: chain it with the whole blocks of data, keeping at
		// least one byte back.
		k := min((len(data)-1)/16*16, len(m.chain)-16)
		copy(m.chain[:16], m.buf[:])
		copy(m.chain[16:], data[:k])
		data = data[k:]
		m.absorb(m.chain[:16+k])
		m.bufLen = copy(m.buf[:], data)
		data = data[m.bufLen:]
	}
}

// absorb runs X = AES(K, X xor block) over each block of b in place.
func (m *MAC) absorb(b []byte) {
	m.cbc.CryptBlocks(b, b)
	m.blocks += int64(len(b) / 16)
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
	m.absorb(m.buf[:])
	return m.buf
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

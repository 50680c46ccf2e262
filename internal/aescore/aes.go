// Package aescore implements AES-128 from scratch as a model of the
// low-area AES hardware core in the SACHa static partition.
//
// The implementation follows FIPS-197 directly (byte-oriented state, S-box
// derived from the GF(2^8) inverse plus affine transform at package init)
// rather than using T-tables, mirroring an iterated one-round-per-cycle
// hardware datapath. CyclesPerBlock exposes the cost model used by the
// timing reproduction: 1 cycle for the initial key addition plus 10 round
// cycles.
//
// aescore is the reference model and the timing source, not the bytes
// path: package cmac computes its MACs with an AES-NI kernel (or, where
// that cannot run, a portable chain over crypto/aes) and tests hold both
// bit-identical to a CMAC over this core, while the timing model charges
// CyclesPerBlock per AES block the MAC reports. Core satisfies
// crypto/cipher.Block so the portable chain can run over it in those
// tests.
package aescore

import "fmt"

// BlockSize is the AES block size in bytes.
const BlockSize = 16

// KeySize is the AES-128 key size in bytes.
const KeySize = 16

// CyclesPerBlock is the hardware-model cost of encrypting one block with
// an iterated round-per-cycle datapath (AddRoundKey + 10 rounds).
const CyclesPerBlock = 11

var sbox [256]byte
var invSbox [256]byte

// GF(2^8) multiplication tables for the MixColumns coefficients, built at
// init from gmul. A hardware datapath computes these products with a few
// XOR gates; the tables keep the software model fast without changing the
// from-first-principles construction.
var mul2, mul3, mul9, mul11, mul13, mul14 [256]byte

// gmul multiplies a and b in GF(2^8) modulo the AES polynomial x^8+x^4+x^3+x+1.
func gmul(a, b byte) byte {
	var p byte
	for i := 0; i < 8; i++ {
		if b&1 != 0 {
			p ^= a
		}
		hi := a & 0x80
		a <<= 1
		if hi != 0 {
			a ^= 0x1B
		}
		b >>= 1
	}
	return p
}

func init() {
	// Build the S-box from the multiplicative inverse and the affine
	// transform, as in FIPS-197 §5.1.1.
	var inv [256]byte
	for x := 1; x < 256; x++ {
		for y := 1; y < 256; y++ {
			if gmul(byte(x), byte(y)) == 1 {
				inv[x] = byte(y)
				break
			}
		}
	}
	for x := 0; x < 256; x++ {
		b := inv[x]
		s := b ^ rotl8(b, 1) ^ rotl8(b, 2) ^ rotl8(b, 3) ^ rotl8(b, 4) ^ 0x63
		sbox[x] = s
		invSbox[s] = byte(x)
		mul2[x] = gmul(byte(x), 2)
		mul3[x] = gmul(byte(x), 3)
		mul9[x] = gmul(byte(x), 9)
		mul11[x] = gmul(byte(x), 11)
		mul13[x] = gmul(byte(x), 13)
		mul14[x] = gmul(byte(x), 14)
	}
}

func rotl8(b byte, n uint) byte { return b<<n | b>>(8-n) }

// Core is an AES-128 encryption/decryption core with an expanded key.
type Core struct {
	rk [44]uint32 // round keys, 4 words per round, 11 rounds
}

// New expands a 16-byte key and returns a Core.
func New(key []byte) (*Core, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("aescore: key must be %d bytes, got %d", KeySize, len(key))
	}
	c := &Core{}
	for i := 0; i < 4; i++ {
		c.rk[i] = uint32(key[4*i])<<24 | uint32(key[4*i+1])<<16 | uint32(key[4*i+2])<<8 | uint32(key[4*i+3])
	}
	rcon := uint32(1)
	for i := 4; i < 44; i++ {
		t := c.rk[i-1]
		if i%4 == 0 {
			t = subWord(rotWord(t)) ^ rcon<<24
			rcon = uint32(gmul(byte(rcon), 2))
		}
		c.rk[i] = c.rk[i-4] ^ t
	}
	return c, nil
}

func rotWord(w uint32) uint32 { return w<<8 | w>>24 }

func subWord(w uint32) uint32 {
	return uint32(sbox[w>>24])<<24 | uint32(sbox[w>>16&0xFF])<<16 |
		uint32(sbox[w>>8&0xFF])<<8 | uint32(sbox[w&0xFF])
}

// state is the AES state in column-major order: state[r][c].
type state [4][4]byte

func loadState(src []byte) state {
	var s state
	for c := 0; c < 4; c++ {
		for r := 0; r < 4; r++ {
			s[r][c] = src[4*c+r]
		}
	}
	return s
}

func (s *state) store(dst []byte) {
	for c := 0; c < 4; c++ {
		for r := 0; r < 4; r++ {
			dst[4*c+r] = s[r][c]
		}
	}
}

func (s *state) addRoundKey(rk []uint32) {
	for c := 0; c < 4; c++ {
		w := rk[c]
		s[0][c] ^= byte(w >> 24)
		s[1][c] ^= byte(w >> 16)
		s[2][c] ^= byte(w >> 8)
		s[3][c] ^= byte(w)
	}
}

func (s *state) subBytes() {
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			s[r][c] = sbox[s[r][c]]
		}
	}
}

func (s *state) invSubBytes() {
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			s[r][c] = invSbox[s[r][c]]
		}
	}
}

func (s *state) shiftRows() {
	for r := 1; r < 4; r++ {
		var tmp [4]byte
		for c := 0; c < 4; c++ {
			tmp[c] = s[r][(c+r)%4]
		}
		s[r] = tmp
	}
}

func (s *state) invShiftRows() {
	for r := 1; r < 4; r++ {
		var tmp [4]byte
		for c := 0; c < 4; c++ {
			tmp[(c+r)%4] = s[r][c]
		}
		s[r] = tmp
	}
}

func (s *state) mixColumns() {
	for c := 0; c < 4; c++ {
		a0, a1, a2, a3 := s[0][c], s[1][c], s[2][c], s[3][c]
		s[0][c] = mul2[a0] ^ mul3[a1] ^ a2 ^ a3
		s[1][c] = a0 ^ mul2[a1] ^ mul3[a2] ^ a3
		s[2][c] = a0 ^ a1 ^ mul2[a2] ^ mul3[a3]
		s[3][c] = mul3[a0] ^ a1 ^ a2 ^ mul2[a3]
	}
}

func (s *state) invMixColumns() {
	for c := 0; c < 4; c++ {
		a0, a1, a2, a3 := s[0][c], s[1][c], s[2][c], s[3][c]
		s[0][c] = mul14[a0] ^ mul11[a1] ^ mul13[a2] ^ mul9[a3]
		s[1][c] = mul9[a0] ^ mul14[a1] ^ mul11[a2] ^ mul13[a3]
		s[2][c] = mul13[a0] ^ mul9[a1] ^ mul14[a2] ^ mul11[a3]
		s[3][c] = mul11[a0] ^ mul13[a1] ^ mul9[a2] ^ mul14[a3]
	}
}

// BlockSize returns the cipher's block size, making Core a
// crypto/cipher.Block.
func (c *Core) BlockSize() int { return BlockSize }

// Encrypt encrypts one 16-byte block. dst and src may overlap.
func (c *Core) Encrypt(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("aescore: short block")
	}
	s := loadState(src)
	s.addRoundKey(c.rk[0:4])
	for round := 1; round < 10; round++ {
		s.subBytes()
		s.shiftRows()
		s.mixColumns()
		s.addRoundKey(c.rk[4*round : 4*round+4])
	}
	s.subBytes()
	s.shiftRows()
	s.addRoundKey(c.rk[40:44])
	s.store(dst)
}

// Decrypt decrypts one 16-byte block. dst and src may overlap.
func (c *Core) Decrypt(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("aescore: short block")
	}
	s := loadState(src)
	s.addRoundKey(c.rk[40:44])
	for round := 9; round >= 1; round-- {
		s.invShiftRows()
		s.invSubBytes()
		s.addRoundKey(c.rk[4*round : 4*round+4])
		s.invMixColumns()
	}
	s.invShiftRows()
	s.invSubBytes()
	s.addRoundKey(c.rk[0:4])
	s.store(dst)
}

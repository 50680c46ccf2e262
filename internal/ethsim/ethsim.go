// Package ethsim models the Gigabit Ethernet link between verifier and
// prover.
//
// The SACHa proof of concept transports one protocol command per network
// packet over a Gigabit link (paper §6.1); the ETH core moves one byte per
// 125 MHz cycle, i.e. 8 ns/byte. This package provides the Ethernet II
// frame codec with a CRC-32 frame check sequence (computed by hash/crc32;
// the bit-serial LFSR a hardware MAC uses is kept as CRC32Serial, and
// tests cross-check the two) and the line-time model used by the Table 3
// reproduction.
package ethsim

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"time"
)

// EtherTypeSACHa is the experimental ethertype carrying SACHa messages.
const EtherTypeSACHa = 0x88B5

// Physical-layer constants for Gigabit Ethernet.
const (
	NsPerByte     = 8  // one byte per 125 MHz cycle
	PreambleBytes = 8  // preamble + start-of-frame delimiter
	IFGBytes      = 12 // inter-frame gap
	HeaderBytes   = 14 // dst(6) + src(6) + ethertype(2)
	FCSBytes      = 4
	MaxPayload    = 1500
)

// MAC is a 48-bit hardware address.
type MAC [6]byte

// Frame is an Ethernet II frame.
type Frame struct {
	Dst, Src  MAC
	EtherType uint16
	Payload   []byte
}

// CRC32Serial computes the IEEE 802.3 frame check sequence with the
// bit-serial reflected LFSR (polynomial 0xEDB88320), exactly as a
// hardware MAC's shift register does. It is the reference model that
// tests hold CRC32 to.
func CRC32Serial(data []byte) uint32 {
	crc := uint32(0xFFFFFFFF)
	for _, b := range data {
		crc ^= uint32(b)
		for bit := 0; bit < 8; bit++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ 0xEDB88320
			} else {
				crc >>= 1
			}
		}
	}
	return crc ^ 0xFFFFFFFF
}

// CRC32 computes the IEEE 802.3 frame check sequence with the standard
// library's table-driven (and, where the CPU has it, carry-less
// multiply) implementation of the same polynomial.
func CRC32(data []byte) uint32 { return crc32.ChecksumIEEE(data) }

// Marshal serialises the frame with its FCS into a fresh slice; it is
// AppendMarshal(nil).
func (f *Frame) Marshal() ([]byte, error) { return f.AppendMarshal(nil) }

// AppendMarshal appends the frame with its FCS to dst. Payloads beyond
// MaxPayload are rejected; short frames are *not* padded (the model
// keeps payload sizes exact, and WireBytes accounts for the 64-byte
// minimum).
func (f *Frame) AppendMarshal(dst []byte) ([]byte, error) {
	if len(f.Payload) > MaxPayload {
		return nil, fmt.Errorf("ethsim: payload %d exceeds MTU %d", len(f.Payload), MaxPayload)
	}
	start := len(dst)
	if need := start + HeaderBytes + len(f.Payload) + FCSBytes; cap(dst) < need {
		dst = append(make([]byte, 0, need), dst...)
	}
	dst = append(dst, f.Dst[:]...)
	dst = append(dst, f.Src[:]...)
	dst = binary.BigEndian.AppendUint16(dst, f.EtherType)
	dst = append(dst, f.Payload...)
	return binary.BigEndian.AppendUint32(dst, CRC32(dst[start:])), nil
}

// Unmarshal parses a frame and verifies its FCS. The returned frame owns
// a copy of the payload.
func Unmarshal(data []byte) (*Frame, error) {
	f, err := View(data)
	if err != nil {
		return nil, err
	}
	f.Payload = append([]byte(nil), f.Payload...)
	return &f, nil
}

// View parses a frame and verifies its FCS without copying: the returned
// Payload is a sub-slice of data. Payloads beyond MaxPayload are
// rejected, the bound Marshal enforces.
func View(data []byte) (Frame, error) {
	if len(data) < HeaderBytes+FCSBytes {
		return Frame{}, fmt.Errorf("ethsim: frame of %d bytes too short", len(data))
	}
	if n := len(data) - HeaderBytes - FCSBytes; n > MaxPayload {
		return Frame{}, fmt.Errorf("ethsim: payload %d exceeds MTU %d", n, MaxPayload)
	}
	body := data[:len(data)-FCSBytes]
	want := binary.BigEndian.Uint32(data[len(data)-FCSBytes:])
	if got := CRC32(body); got != want {
		return Frame{}, fmt.Errorf("ethsim: FCS mismatch (got %#08x, want %#08x)", got, want)
	}
	f := Frame{EtherType: binary.BigEndian.Uint16(body[12:14]), Payload: body[HeaderBytes:]}
	copy(f.Dst[:], body[0:6])
	copy(f.Src[:], body[6:12])
	return f, nil
}

// WireBytes returns the total on-wire byte count for a payload of the
// given size, including preamble, header, FCS and inter-frame gap. The
// SACHa ETH core emits frames without minimum-size padding (the paper's
// A9/A10 timings correspond to 43- and 59-byte frames), so no 64-byte
// minimum is enforced here.
func WireBytes(payloadLen int) int {
	return PreambleBytes + HeaderBytes + payloadLen + FCSBytes + IFGBytes
}

// WireTime returns the Gigabit line time for a payload of the given size.
func WireTime(payloadLen int) time.Duration {
	return time.Duration(WireBytes(payloadLen)*NsPerByte) * time.Nanosecond
}

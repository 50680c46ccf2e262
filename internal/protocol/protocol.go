// Package protocol defines the SACHa wire messages.
//
// The attestation runs as a repetition of three commands sent from the
// verifier to the prover (paper §6.1):
//
//	ICAP_config(frame)      — write one configuration frame
//	ICAP_readback(frame_nb) — read one frame back, step the MAC
//	MAC_checksum            — finalise the MAC and return the tag
//
// plus the responses (frame sendback, MAC value). Two extension messages
// support the paper's future-work items: AppStep clocks the dynamic
// application a given number of cycles (for the register-state CAPTURE
// attestation), and SigChecksum requests an ECDSA signature instead of a
// MAC when no key was pre-shared.
package protocol

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

	"sacha/internal/device"
	"sacha/internal/ethsim"
)

// MsgType identifies a protocol message.
type MsgType uint8

const (
	// MsgICAPConfig carries one configuration frame: index + 81 words.
	MsgICAPConfig MsgType = iota + 1
	// MsgICAPConfigBatch carries up to 255 frames in one packet (the
	// §6.1 BRAM-buffer ↔ message-count trade-off): count, then per frame
	// an index + 81 words. The prover rejects batches beyond its frame
	// buffer.
	MsgICAPConfigBatch
	// MsgICAPReadback requests readback of one frame: index.
	MsgICAPReadback
	// MsgMACChecksum requests MAC finalisation.
	MsgMACChecksum
	// MsgAppStep clocks the dynamic application N cycles (extension).
	MsgAppStep
	// MsgSigChecksum requests an ECDSA signature over the readback
	// transcript instead of a MAC (extension).
	MsgSigChecksum

	// MsgFrameData is the prover's frame sendback: index + 81 words. It
	// decodes into Message.Data, the words' big-endian bytes as they
	// travel, which is also the form both ends' MAC absorbs.
	MsgFrameData
	// MsgMACValue is the prover's 16-byte AES-CMAC tag.
	MsgMACValue
	// MsgSigValue is the prover's ECDSA signature (variable length).
	MsgSigValue
	// MsgAck acknowledges a command with no data response.
	MsgAck
	// MsgError reports a prover-side failure.
	MsgError

	// MsgSeqReq is the reliable-transport request envelope: a sequence
	// number plus a CRC-32 over the sequence number and the embedded
	// message. The verifier's retry layer wraps every command in it; the
	// prover answers each distinct sequence number exactly once and
	// replays the cached response for duplicates, making re-sends
	// idempotent (a readback is MACed once however often the request is
	// duplicated on the wire).
	MsgSeqReq
	// MsgSeqResp is the matching response envelope. Commands without a
	// response of their own (ICAP_config) are acknowledged with an
	// embedded Ack.
	MsgSeqResp

	// MsgHello opens a capability negotiation: the verifier offers a
	// bitmask of optional protocol features (compressed payloads, the
	// batched readback scan). A prover that predates the message answers
	// with an Error, which the verifier treats as "no capabilities" — the
	// protocol then degrades to the paper's baseline.
	MsgHello
	// MsgHelloAck is the prover's answer: the subset of the offered
	// capabilities it implements and enables for this session.
	MsgHelloAck
	// MsgICAPConfigBatchC is the compressed configuration batch: a frame
	// count, the explicit frame indices, and one compress.Encode stream
	// holding the concatenated frame words. At typical bitstream
	// compression ratios a 16-frame compressed batch fits the same
	// Ethernet MTU as a 4-frame raw batch. The prover decodes with a hard
	// bound of count×FrameWords words, so hostile counts cannot inflate
	// its buffers (the bounded-memory argument survives compression).
	MsgICAPConfigBatchC
	// MsgFrameDataC is the compressed frame sendback: 24-bit index plus a
	// compress.Encode stream of exactly FrameWords words. The verifier
	// absorbs the *decompressed* words into the MAC, so H_Vrf is
	// bit-identical to an uncompressed session.
	MsgFrameDataC
	// MsgScan requests a MAC-free readback of up to FrameBufferFrames
	// frames in one round trip: a count plus explicit frame indices. It
	// is the probe of the delta-configuration mode — unlike
	// ICAP_readback it never touches the attestation MAC, so a scan
	// before Phase 1 cannot perturb H_Prv.
	MsgScan
	// MsgScanData is the prover's scan answer: the echoed count and
	// indices plus one compressed stream of the concatenated frame words.
	// The stream is at most MaxScanComp bytes; frames that do not
	// compress that far are answered with an empty stream (an overflow),
	// which proves none of them clean.
	MsgScanData
)

// Capability bits negotiated via MsgHello/MsgHelloAck.
const (
	// CapCompress enables the compressed encodings: the verifier may send
	// MsgICAPConfigBatchC and the prover answers readback with
	// MsgFrameDataC.
	CapCompress uint32 = 1 << 0
	// CapScan enables the MsgScan/MsgScanData probe pair.
	CapScan uint32 = 1 << 1
)

// MaxScanFrames bounds the frame count of one MsgScan/MsgScanData
// exchange. It mirrors the prover's frame-buffer capacity
// (prover.FrameBufferFrames): a scan response must never require more
// device memory than a configuration batch.
const MaxScanFrames = 16

// MaxWire bounds every encoded message the protocol ships, sequence
// envelope included: one message travels in one Ethernet frame, whose
// payload is at most ethsim.MaxPayload bytes.
const MaxWire = ethsim.MaxPayload

// SeqHeader is the sequence envelope's length before the embedded
// message: the type byte, the sequence number and the CRC.
const SeqHeader = 1 + 4 + 4

// MaxScanComp bounds a ScanData answer's compressed stream, so that the
// answer fits MaxWire in its envelope whatever the probed frames hold:
// a reply's size must never depend on (possibly hostile) frame content.
const MaxScanComp = MaxWire - SeqHeader - 2 - 4*MaxScanFrames

func (t MsgType) String() string {
	switch t {
	case MsgICAPConfig:
		return "ICAP_config"
	case MsgICAPConfigBatch:
		return "ICAP_config_batch"
	case MsgICAPReadback:
		return "ICAP_readback"
	case MsgMACChecksum:
		return "MAC_checksum"
	case MsgAppStep:
		return "App_step"
	case MsgSigChecksum:
		return "Sig_checksum"
	case MsgFrameData:
		return "Frame_data"
	case MsgMACValue:
		return "MAC_value"
	case MsgSigValue:
		return "Sig_value"
	case MsgAck:
		return "Ack"
	case MsgError:
		return "Error"
	case MsgSeqReq:
		return "Seq_req"
	case MsgSeqResp:
		return "Seq_resp"
	case MsgHello:
		return "Hello"
	case MsgHelloAck:
		return "Hello_ack"
	case MsgICAPConfigBatchC:
		return "ICAP_config_batch_c"
	case MsgFrameDataC:
		return "Frame_data_c"
	case MsgScan:
		return "Scan"
	case MsgScanData:
		return "Scan_data"
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Message is a decoded protocol message.
type Message struct {
	Type       MsgType
	FrameIndex uint32        // ICAPConfig, ICAPReadback, FrameData
	Words      []uint32      // ICAPConfig, FrameData (encode): 81 frame words
	Data       []byte        // FrameData: the frame's 4·81 big-endian bytes (decode; encode without Words)
	Steps      uint32        // AppStep
	Arg        uint32        // MACChecksum/SigChecksum reserved arg; MACValue sequence
	MAC        [16]byte      // MACValue
	Sig        []byte        // SigValue
	Err        string        // Error
	Batch      []FrameRecord // ICAPConfigBatch
	Seq        uint32        // SeqReq, SeqResp: envelope sequence number
	Inner      []byte        // SeqReq, SeqResp: embedded encoded message
	Caps       uint32        // Hello, HelloAck: capability bitmask
	Frames     []uint32      // ConfigBatchC, Scan, ScanData: explicit frame indices
	Comp       []byte        // ConfigBatchC, FrameDataC, ScanData: compressed words
}

// MaxErrLen bounds the Error message string on the wire.
const MaxErrLen = 1024

// FrameRecord is one addressed frame within a batch message.
type FrameRecord struct {
	Index uint32
	Words []uint32
}

// Wire sizes of the fixed-layout messages, in bytes. These are the
// payload sizes behind the paper's Table 3 per-action wire times:
// a 328-byte frame sendback (A8 = 2,928 ns), 5-byte commands
// (A9 = 344 ns) and a 21-byte MAC sendback (A10 = 472 ns).
const (
	SizeICAPConfig   = 1 + 4 + 4*device.FrameWords // 329
	SizeICAPReadback = 1 + 4                       // 5
	SizeMACChecksum  = 1 + 4                       // 5
	SizeFrameData    = 1 + 3 + 4*device.FrameWords // 328 (24-bit index)
	SizeMACValue     = 1 + 16 + 4                  // 21
)

// Encode serialises the message into a fresh buffer.
func (m *Message) Encode() ([]byte, error) { return m.AppendEncode(nil) }

// AppendEncode appends the message's wire form to dst and returns the
// extended slice, so a sender can encode every message of a session into
// one reused buffer. On error dst is returned unchanged.
func (m *Message) AppendEncode(dst []byte) ([]byte, error) {
	out := append(dst, byte(m.Type))
	switch m.Type {
	case MsgICAPConfig:
		if len(m.Words) != device.FrameWords {
			return dst, fmt.Errorf("protocol: %v with %d words", m.Type, len(m.Words))
		}
		out = binary.BigEndian.AppendUint32(out, m.FrameIndex)
		out = AppendWords(out, m.Words)
	case MsgFrameData:
		// The frame sendback packs the index into 24 bits, giving the
		// 328-byte payload behind the paper's A8 timing. The frame comes
		// from Words when set, else from the already serialised Data.
		if len(m.Words) > 0 && len(m.Words) != device.FrameWords {
			return dst, fmt.Errorf("protocol: %v with %d words", m.Type, len(m.Words))
		}
		if len(m.Words) == 0 && len(m.Data) != device.FrameBytes {
			return dst, fmt.Errorf("protocol: %v with %d data bytes", m.Type, len(m.Data))
		}
		if m.FrameIndex >= 1<<24 {
			return dst, fmt.Errorf("protocol: frame index %d exceeds 24 bits", m.FrameIndex)
		}
		out = append(out, byte(m.FrameIndex>>16), byte(m.FrameIndex>>8), byte(m.FrameIndex))
		if len(m.Words) > 0 {
			out = AppendWords(out, m.Words)
		} else {
			out = append(out, m.Data...)
		}
	case MsgICAPConfigBatch:
		if len(m.Batch) == 0 || len(m.Batch) > 255 {
			return dst, fmt.Errorf("protocol: batch of %d frames", len(m.Batch))
		}
		out = append(out, byte(len(m.Batch)))
		for _, fr := range m.Batch {
			if len(fr.Words) != device.FrameWords {
				return dst, fmt.Errorf("protocol: batch frame %d has %d words", fr.Index, len(fr.Words))
			}
			out = binary.BigEndian.AppendUint32(out, fr.Index)
			out = AppendWords(out, fr.Words)
		}
	case MsgICAPReadback:
		out = binary.BigEndian.AppendUint32(out, m.FrameIndex)
	case MsgMACChecksum, MsgSigChecksum:
		out = binary.BigEndian.AppendUint32(out, m.Arg)
	case MsgAck:
		// type byte only
	case MsgAppStep:
		out = binary.BigEndian.AppendUint32(out, m.Steps)
	case MsgMACValue:
		out = append(out, m.MAC[:]...)
		out = binary.BigEndian.AppendUint32(out, m.Arg)
	case MsgSigValue:
		out = binary.BigEndian.AppendUint16(out, uint16(len(m.Sig)))
		out = append(out, m.Sig...)
	case MsgError:
		if len(m.Err) > MaxErrLen {
			return dst, fmt.Errorf("protocol: error string too long")
		}
		out = binary.BigEndian.AppendUint16(out, uint16(len(m.Err)))
		out = append(out, m.Err...)
	case MsgSeqReq, MsgSeqResp:
		if len(m.Inner) == 0 {
			return dst, fmt.Errorf("protocol: empty %v envelope", m.Type)
		}
		out = binary.BigEndian.AppendUint32(out, m.Seq)
		out = binary.BigEndian.AppendUint32(out, seqCRC(m.Seq, m.Inner))
		out = append(out, m.Inner...)
	case MsgHello, MsgHelloAck:
		out = binary.BigEndian.AppendUint32(out, m.Caps)
	case MsgICAPConfigBatchC, MsgScanData:
		if len(m.Frames) == 0 || len(m.Frames) > MaxScanFrames {
			return dst, fmt.Errorf("protocol: %v with %d frames", m.Type, len(m.Frames))
		}
		if len(m.Comp) == 0 && m.Type == MsgICAPConfigBatchC {
			return dst, fmt.Errorf("protocol: %v without payload", m.Type)
		}
		out = append(out, byte(len(m.Frames)))
		out = AppendWords(out, m.Frames)
		out = append(out, m.Comp...)
	case MsgScan:
		if len(m.Frames) == 0 || len(m.Frames) > MaxScanFrames {
			return dst, fmt.Errorf("protocol: %v with %d frames", m.Type, len(m.Frames))
		}
		out = append(out, byte(len(m.Frames)))
		out = AppendWords(out, m.Frames)
	case MsgFrameDataC:
		if m.FrameIndex >= 1<<24 {
			return dst, fmt.Errorf("protocol: frame index %d exceeds 24 bits", m.FrameIndex)
		}
		if len(m.Comp) == 0 {
			return dst, fmt.Errorf("protocol: %v without payload", m.Type)
		}
		out = append(out, byte(m.FrameIndex>>16), byte(m.FrameIndex>>8), byte(m.FrameIndex))
		out = append(out, m.Comp...)
	default:
		return dst, fmt.Errorf("protocol: cannot encode %v", m.Type)
	}
	return out, nil
}

// AppendWords appends words big-endian to dst and returns the extended
// slice: the wire form of frame words, and the bytes both ends' MAC and
// transcript absorb for a read-back frame, so a caller may serialise
// every frame into one reused buffer.
func AppendWords(dst []byte, words []uint32) []byte {
	for _, w := range words {
		dst = binary.BigEndian.AppendUint32(dst, w)
	}
	return dst
}

// decodeWords decodes n big-endian words from src into buf's backing
// array, growing it only when it lacks room.
func decodeWords(buf []uint32, src []byte, n int) []uint32 {
	buf = slices.Grow(buf[:0], n)[:n]
	for i := range buf {
		buf[i] = binary.BigEndian.Uint32(src[4*i:])
	}
	return buf
}

// Decode parses a message into a freshly allocated Message.
func Decode(data []byte) (*Message, error) {
	m := new(Message)
	if err := DecodeInto(m, data); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeInto parses a message into m, for receivers that decode every
// message of a session into one reused Message. Every field of m is
// reset, and bytes are copied out of data, so m never aliases the input.
// The backing arrays of Words, Data, Frames, Comp, Inner, Sig and Batch
// are reused: a field the decoded type does not carry is left empty with
// its capacity kept for a later message. A FrameData's frame lands in
// Data, not Words. On error the content of m is unspecified.
func DecodeInto(m *Message, data []byte) error {
	if len(data) == 0 {
		return fmt.Errorf("protocol: empty message")
	}
	*m = Message{
		Type:   MsgType(data[0]),
		Words:  m.Words[:0],
		Data:   m.Data[:0],
		Frames: m.Frames[:0],
		Comp:   m.Comp[:0],
		Inner:  m.Inner[:0],
		Sig:    m.Sig[:0],
		Batch:  m.Batch[:0],
	}
	body := data[1:]
	need := func(n int) error {
		if len(body) != n {
			return fmt.Errorf("protocol: %v message has %d body bytes, want %d", m.Type, len(body), n)
		}
		return nil
	}
	switch m.Type {
	case MsgICAPConfig:
		if err := need(4 + 4*device.FrameWords); err != nil {
			return err
		}
		m.FrameIndex = binary.BigEndian.Uint32(body)
		m.Words = decodeWords(m.Words, body[4:], device.FrameWords)
	case MsgFrameData:
		if err := need(3 + 4*device.FrameWords); err != nil {
			return err
		}
		m.FrameIndex = uint32(body[0])<<16 | uint32(body[1])<<8 | uint32(body[2])
		m.Data = append(m.Data, body[3:]...)
	case MsgICAPConfigBatch:
		if len(body) < 1 {
			return fmt.Errorf("protocol: empty batch")
		}
		count := int(body[0])
		if count == 0 {
			return fmt.Errorf("protocol: batch of zero frames")
		}
		per := 4 + 4*device.FrameWords
		if len(body) != 1+count*per {
			return fmt.Errorf("protocol: batch of %d frames has %d body bytes", count, len(body))
		}
		body = body[1:]
		m.Batch = slices.Grow(m.Batch, count)[:count]
		for i := range m.Batch {
			fr := &m.Batch[i]
			fr.Index = binary.BigEndian.Uint32(body)
			fr.Words = decodeWords(fr.Words, body[4:], device.FrameWords)
			body = body[per:]
		}
	case MsgICAPReadback:
		if err := need(4); err != nil {
			return err
		}
		m.FrameIndex = binary.BigEndian.Uint32(body)
	case MsgMACChecksum, MsgSigChecksum:
		if err := need(4); err != nil {
			return err
		}
		m.Arg = binary.BigEndian.Uint32(body)
	case MsgAck:
		if err := need(0); err != nil {
			return err
		}
	case MsgAppStep:
		if err := need(4); err != nil {
			return err
		}
		m.Steps = binary.BigEndian.Uint32(body)
	case MsgMACValue:
		if err := need(16 + 4); err != nil {
			return err
		}
		copy(m.MAC[:], body)
		m.Arg = binary.BigEndian.Uint32(body[16:])
	case MsgSigValue:
		if len(body) < 2 {
			return fmt.Errorf("protocol: short Sig_value")
		}
		n := int(binary.BigEndian.Uint16(body))
		if len(body) != 2+n {
			return fmt.Errorf("protocol: Sig_value length mismatch")
		}
		m.Sig = append(m.Sig, body[2:]...)
	case MsgError:
		if len(body) < 2 {
			return fmt.Errorf("protocol: short Error")
		}
		n := int(binary.BigEndian.Uint16(body))
		if len(body) != 2+n {
			return fmt.Errorf("protocol: Error length mismatch")
		}
		if n > MaxErrLen {
			return fmt.Errorf("protocol: error string too long")
		}
		m.Err = string(body[2:])
	case MsgSeqReq, MsgSeqResp:
		if len(body) < 9 {
			return fmt.Errorf("protocol: short %v envelope", m.Type)
		}
		m.Seq = binary.BigEndian.Uint32(body)
		if binary.BigEndian.Uint32(body[4:]) != seqCRC(m.Seq, body[8:]) {
			return fmt.Errorf("protocol: %v envelope CRC mismatch", m.Type)
		}
		m.Inner = append(m.Inner, body[8:]...)
	case MsgHello, MsgHelloAck:
		if err := need(4); err != nil {
			return err
		}
		m.Caps = binary.BigEndian.Uint32(body)
	case MsgICAPConfigBatchC, MsgScanData:
		if len(body) < 1 {
			return fmt.Errorf("protocol: empty %v", m.Type)
		}
		count := int(body[0])
		if count == 0 || count > MaxScanFrames {
			return fmt.Errorf("protocol: %v with %d frames", m.Type, count)
		}
		// Only a scan answer may carry an empty (overflow) stream.
		if len(body) < 1+4*count || len(body) == 1+4*count && m.Type == MsgICAPConfigBatchC {
			return fmt.Errorf("protocol: short %v", m.Type)
		}
		m.Frames = decodeWords(m.Frames, body[1:], count)
		m.Comp = append(m.Comp, body[1+4*count:]...)
	case MsgScan:
		if len(body) < 1 {
			return fmt.Errorf("protocol: empty %v", m.Type)
		}
		count := int(body[0])
		if count == 0 || count > MaxScanFrames {
			return fmt.Errorf("protocol: %v with %d frames", m.Type, count)
		}
		if len(body) != 1+4*count {
			return fmt.Errorf("protocol: %v with %d frames has %d body bytes", m.Type, count, len(body))
		}
		m.Frames = decodeWords(m.Frames, body[1:], count)
	case MsgFrameDataC:
		if len(body) < 4 {
			return fmt.Errorf("protocol: short %v", m.Type)
		}
		m.FrameIndex = uint32(body[0])<<16 | uint32(body[1])<<8 | uint32(body[2])
		m.Comp = append(m.Comp, body[3:]...)
	default:
		return fmt.Errorf("protocol: unknown message type %d", data[0])
	}
	return nil
}

// Convenience constructors.

// Config builds an ICAP_config message.
func Config(frameIndex int, words []uint32) *Message {
	return &Message{Type: MsgICAPConfig, FrameIndex: uint32(frameIndex), Words: words}
}

// Readback builds an ICAP_readback message.
func Readback(frameIndex int) *Message {
	return &Message{Type: MsgICAPReadback, FrameIndex: uint32(frameIndex)}
}

// Checksum builds a MAC_checksum message.
func Checksum() *Message { return &Message{Type: MsgMACChecksum} }

// Hello builds a capability-offer message.
func Hello(caps uint32) *Message { return &Message{Type: MsgHello, Caps: caps} }

// Scan builds a batched MAC-free readback request.
func Scan(frames []uint32) *Message { return &Message{Type: MsgScan, Frames: frames} }

// Errorf builds an Error message, truncating to the wire limit.
func Errorf(format string, args ...any) *Message {
	s := fmt.Sprintf(format, args...)
	if len(s) > MaxErrLen {
		s = s[:MaxErrLen]
	}
	return &Message{Type: MsgError, Err: s}
}

// seqCRC is the envelope checksum: CRC-32 (IEEE) over the big-endian
// sequence number followed by the embedded message, so corruption of
// either is detected at the transport layer — a flipped frame bit must
// trigger a re-send, never silently poison the readback MAC. The four
// sequence bytes are folded in through the IEEE table directly: a byte
// array handed to package crc32 escapes to the heap.
func seqCRC(seq uint32, inner []byte) uint32 {
	crc := ^uint32(0)
	for shift := 24; shift >= 0; shift -= 8 {
		crc = crc32.IEEETable[byte(crc)^byte(seq>>shift)] ^ crc>>8
	}
	return crc32.Update(^crc, crc32.IEEETable, inner)
}

// WrapReq wraps an encoded command in a request envelope.
func WrapReq(seq uint32, inner []byte) *Message {
	return &Message{Type: MsgSeqReq, Seq: seq, Inner: inner}
}

// WrapResp wraps an encoded response in a response envelope.
func WrapResp(seq uint32, inner []byte) *Message {
	return &Message{Type: MsgSeqResp, Seq: seq, Inner: inner}
}

// Package icap models the Internal Configuration Access Port.
//
// The ICAP is the primitive through which the SACHa static partition
// writes partial bitstreams into the configuration memory and reads the
// entire configuration memory back (paper §2.1.2–2.1.3). The model speaks
// a Virtex-style packet protocol: a sync word, type-1/type-2 packets
// addressing the FAR/FDRI/FDRO/CMD registers, frame-granular writes with a
// trailing pad frame, and readback that returns a pad frame before the
// requested data — the details that give the paper its per-frame timing.
//
// One 32-bit word crosses the port per ICAP clock cycle; the port ticks
// the clock it is given, so callers obtain cycle-accurate costs.
package icap

import (
	"fmt"
	"slices"

	"sacha/internal/device"
	"sacha/internal/fabric"
	"sacha/internal/sim"
)

// Well-known configuration words.
const (
	DummyWord = 0xFFFFFFFF
	SyncWord  = 0xAA995566
)

// Configuration register addresses (type-1 packet register field).
const (
	RegCRC  = 0x0
	RegFAR  = 0x1
	RegFDRI = 0x2
	RegFDRO = 0x3
	RegCMD  = 0x4
)

// CMD register values.
const (
	CmdNull   = 0x0
	CmdWCFG   = 0x1 // write configuration
	CmdRCFG   = 0x4 // read configuration
	CmdRCRC   = 0x7 // reset CRC
	CmdDesync = 0xD
)

// Packet header construction (type-1: 001 op[2] reg[18] count[11];
// type-2: 010 op[2] count[27]).
const (
	opNop   = 0
	opRead  = 1
	opWrite = 2
)

// Type1 builds a type-1 packet header: [31:29]=001, [28:27]=op,
// [26:13]=register, [10:0]=word count.
func Type1(op, reg, count int) uint32 {
	return 1<<29 | uint32(op&3)<<27 | uint32(reg&0x3FFF)<<13 | uint32(count&0x7FF)
}

// Type2 builds a type-2 packet header (large word counts).
func Type2(op, count int) uint32 {
	return 2<<29 | uint32(op&3)<<27 | uint32(count&0x7FFFFFF)
}

func headerType(w uint32) int { return int(w >> 29) }
func headerOp(w uint32) int   { return int(w >> 27 & 3) }
func headerReg(w uint32) int  { return int(w >> 13 & 0x1F) }

// Port is one ICAP primitive bound to a fabric and a clock domain.
type Port struct {
	fab   *fabric.Fabric
	clock *sim.Clock

	synced bool
	far    uint32
	// farIdx is the linear frame the FAR addresses, resolved from far on
	// first use after a FAR write, or -1 until then. The auto-increment
	// after each frame steps farIdx alone: far is only ever read to
	// resolve farIdx, and a FAR write replaces both.
	farIdx  int
	cmd     uint32
	crc     uint32
	pending []uint32 // FDRI data buffer (one frame pipeline)
	rdQueue []uint32 // FDRO data waiting to be read

	framesWritten int64
	framesRead    int64
}

// New returns an ICAP port driving the given fabric. The clock is ticked
// once per transferred word; pass a fresh 100 MHz clock for the paper's
// timing.
func New(fab *fabric.Fabric, clock *sim.Clock) *Port {
	return &Port{fab: fab, clock: clock, farIdx: -1}
}

// FramesWritten returns the number of configuration frames committed.
func (p *Port) FramesWritten() int64 { return p.framesWritten }

// FramesRead returns the number of configuration frames read back.
func (p *Port) FramesRead() int64 { return p.framesRead }

// CRC returns the running CRC register value.
func (p *Port) CRC() uint32 { return p.crc }

// Write feeds a word stream into the port, as the SACHa RX path does with
// the command payload stored in its BRAM buffer.
func (p *Port) Write(words []uint32) error {
	i := 0
	for i < len(words) {
		w := words[i]
		p.clock.Tick(1)
		if w == DummyWord { // dummies pass through in either state
			i++
			continue
		}
		if !p.synced {
			if w == SyncWord {
				p.synced = true
				i++
				continue
			}
			return fmt.Errorf("icap: word %#08x before sync", w)
		}
		if w == SyncWord { // redundant sync while synced is a no-op
			i++
			continue
		}
		switch headerType(w) {
		case 1:
			count := int(w & 0x7FF)
			reg := headerReg(w)
			op := headerOp(w)
			i++
			if op == opNop {
				continue
			}
			if op == opRead {
				if reg != RegFDRO {
					return fmt.Errorf("icap: read of register %d unsupported", reg)
				}
				if err := p.startReadback(count); err != nil {
					return err
				}
				continue
			}
			if i+count > len(words) {
				return fmt.Errorf("icap: truncated type-1 packet (need %d words)", count)
			}
			data := words[i : i+count]
			i += count
			p.clock.Tick(int64(count))
			if err := p.writeReg(reg, data); err != nil {
				return err
			}
		case 2:
			count := int(w & 0x7FFFFFF)
			op := headerOp(w)
			i++
			if op == opRead {
				if err := p.startReadback(count); err != nil {
					return err
				}
				continue
			}
			// Type-2 packets always target the register of the previous
			// type-1 header; the model supports FDRI only.
			if i+count > len(words) {
				return fmt.Errorf("icap: truncated type-2 packet (need %d words)", count)
			}
			data := words[i : i+count]
			i += count
			p.clock.Tick(int64(count))
			if err := p.writeReg(RegFDRI, data); err != nil {
				return err
			}
		default:
			return fmt.Errorf("icap: bad packet header %#08x", w)
		}
	}
	return nil
}

func (p *Port) writeReg(reg int, data []uint32) error {
	switch reg {
	case RegFAR:
		if len(data) != 1 {
			return fmt.Errorf("icap: FAR write with %d words", len(data))
		}
		p.far, p.farIdx = data[0], -1
	case RegCMD:
		if len(data) != 1 {
			return fmt.Errorf("icap: CMD write with %d words", len(data))
		}
		p.cmd = data[0]
		switch p.cmd {
		case CmdRCRC:
			p.crc = 0
			return nil // reset is not itself accumulated
		case CmdDesync:
			p.synced = false
		case CmdWCFG:
			p.pending = p.pending[:0]
		}
	case RegFDRI:
		if p.cmd != CmdWCFG {
			return fmt.Errorf("icap: FDRI write without WCFG command")
		}
		p.pending = append(p.pending, data...)
		return p.flushFrames()
	case RegCRC:
		if len(data) != 1 {
			return fmt.Errorf("icap: CRC write with %d words", len(data))
		}
		// A real device compares; the model just stores it.
		p.crc = data[0]
	default:
		return fmt.Errorf("icap: write to unsupported register %d", reg)
	}
	for _, w := range data {
		p.crc = crcStep(p.crc, w, reg)
	}
	return nil
}

// flushFrames commits whole frames from the FDRI pipeline. The final
// 81-word group of a write is the pad frame that flushes the pipeline and
// is not committed — callers therefore send frame+pad to write one frame.
func (p *Port) flushFrames() error {
	for len(p.pending) >= 2*device.FrameWords {
		frame := p.pending[:device.FrameWords]
		idx, err := p.frameIndex()
		if err != nil {
			return err
		}
		if err := p.fab.WriteFrame(idx, frame); err != nil {
			return err
		}
		p.framesWritten++
		p.advanceFAR(idx)
		p.pending = append(p.pending[:0], p.pending[device.FrameWords:]...)
	}
	return nil
}

// frameIndex returns the frame the FAR addresses.
func (p *Port) frameIndex() (int, error) {
	if p.farIdx >= 0 {
		return p.farIdx, nil
	}
	idx, err := p.fab.Geo.FrameForFAR(device.DecodeFAR(p.far))
	if err != nil {
		return 0, fmt.Errorf("icap: FAR %#08x: %w", p.far, err)
	}
	p.farIdx = idx
	return idx, nil
}

// advanceFAR is the FAR auto-increment after frame current, wrapping
// after the device's last frame.
func (p *Port) advanceFAR(current int) {
	p.farIdx = current + 1
	if p.farIdx >= p.fab.Geo.NumFrames() {
		p.farIdx = 0
	}
}

// startReadback queues count words of FDRO data: one pad frame first,
// then configuration frames starting at the FAR (with capture bits
// carrying live flip-flop state).
//
// A read may not ask for more than one whole-device readback (pad frame
// plus every frame), nor push the undrained queue past that size: the
// type-2 count field reaches 0x7FFFFFF words, and the FAR wraps, so an
// unbounded count would read the device over and over into memory.
func (p *Port) startReadback(count int) (err error) {
	if p.cmd != CmdRCFG {
		return fmt.Errorf("icap: FDRO read without RCFG command")
	}
	if limit := p.maxReadbackWords(); len(p.rdQueue)+count > limit {
		return fmt.Errorf("icap: FDRO read of %d words with %d queued exceeds one whole-device readback (%d words)",
			count, len(p.rdQueue), limit)
	}
	// Frames are read back whole, straight into the queue's tail, which
	// is then cut to count words. A failed readback queues nothing, so a
	// later read cannot return its partial frames.
	start, end := len(p.rdQueue), len(p.rdQueue)+count
	defer func() {
		if err != nil {
			p.rdQueue = p.rdQueue[:start]
		}
	}()
	p.rdQueue = append(p.rdQueue, make([]uint32, device.FrameWords)...) // pad frame
	for len(p.rdQueue) < end {
		idx, err := p.frameIndex()
		if err != nil {
			return err
		}
		n := len(p.rdQueue)
		p.rdQueue = slices.Grow(p.rdQueue, device.FrameWords)[:n+device.FrameWords]
		if err := p.fab.ReadbackFrameInto(idx, p.rdQueue[n:]); err != nil {
			return err
		}
		p.framesRead++
		p.advanceFAR(idx)
	}
	p.rdQueue = p.rdQueue[:end]
	return nil
}

// maxReadbackWords is the most FDRO data the port holds at once: one
// whole-device readback, the pad frame plus every frame of the device.
func (p *Port) maxReadbackWords() int {
	return (p.fab.Geo.NumFrames() + 1) * device.FrameWords
}

// Read drains n words from the readback queue, one per ICAP cycle, into
// a new slice owned by the caller.
func (p *Port) Read(n int) ([]uint32, error) {
	out := make([]uint32, n)
	if err := p.ReadInto(out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadInto drains len(dst) words from the readback queue into dst, one
// per ICAP cycle.
func (p *Port) ReadInto(dst []uint32) error {
	n := len(dst)
	if n > len(p.rdQueue) {
		return fmt.Errorf("icap: read of %d words but only %d queued", n, len(p.rdQueue))
	}
	copy(dst, p.rdQueue[:n])
	p.rdQueue = append(p.rdQueue[:0], p.rdQueue[n:]...)
	p.clock.Tick(int64(n))
	return nil
}

// crcStep mixes one (register, word) pair into the running CRC, a simple
// model of the configuration logic's CRC accumulator: four steps of a
// reflected CRC-32 shift register. The four steps are linear, so they
// equal one nibble-table lookup on the low four bits plus a shift.
func crcStep(crc, word uint32, reg int) uint32 {
	x := crc ^ word ^ uint32(reg)<<26
	return x>>4 ^ crcNibble[x&0xF]
}

// crcNibble[n] is four shift-register steps applied to n.
var crcNibble = func() (t [16]uint32) {
	for n := range t {
		x := uint32(n)
		for i := 0; i < 4; i++ {
			if x&1 != 0 {
				x = x>>1 ^ 0xEDB88320
			} else {
				x >>= 1
			}
		}
		t[n] = x
	}
	return t
}()

// --- High-level helpers used by the SACHa static partition ---

// ConfigFrameStream builds the packet stream that writes one frame at the
// given linear frame index: sync, WCFG, FAR, FDRI with frame + pad frame.
func ConfigFrameStream(geo *device.Geometry, frameIdx int, frame []uint32) ([]uint32, error) {
	return AppendConfigFrameStream(make([]uint32, 0, configStreamWords), geo, frameIdx, frame)
}

// configStreamWords is the length of one frame's configuration stream:
// nine words of preamble, the frame, the pad frame and the desync.
const configStreamWords = 9 + 2*device.FrameWords + 2

// AppendConfigFrameStream appends ConfigFrameStream's words to dst, so a
// caller writing one frame at a time can reuse one buffer.
func AppendConfigFrameStream(dst []uint32, geo *device.Geometry, frameIdx int, frame []uint32) ([]uint32, error) {
	if len(frame) != device.FrameWords {
		return nil, fmt.Errorf("icap: frame has %d words", len(frame))
	}
	far, err := geo.FARForFrame(frameIdx)
	if err != nil {
		return nil, err
	}
	stream := append(dst,
		DummyWord, SyncWord,
		Type1(opWrite, RegCMD, 1), CmdRCRC,
		Type1(opWrite, RegCMD, 1), CmdWCFG,
		Type1(opWrite, RegFAR, 1), far.Encode(),
		Type2(opWrite, 2*device.FrameWords),
	)
	stream = append(stream, frame...)
	stream = append(stream, make([]uint32, device.FrameWords)...) // pad frame
	stream = append(stream, Type1(opWrite, RegCMD, 1), CmdDesync)
	return stream, nil
}

// ReadbackCmdStream builds the packet stream that requests readback of one
// frame at the given linear index (pad frame + frame = 162 words of FDRO).
func ReadbackCmdStream(geo *device.Geometry, frameIdx int) ([]uint32, error) {
	return AppendReadbackCmdStream(nil, geo, frameIdx)
}

// AppendReadbackCmdStream appends ReadbackCmdStream's words to dst, so a
// caller issuing one readback per frame can reuse one buffer.
func AppendReadbackCmdStream(dst []uint32, geo *device.Geometry, frameIdx int) ([]uint32, error) {
	far, err := geo.FARForFrame(frameIdx)
	if err != nil {
		return nil, err
	}
	return append(dst,
		DummyWord, SyncWord,
		Type1(opWrite, RegCMD, 1), CmdRCFG,
		Type1(opWrite, RegFAR, 1), far.Encode(),
		Type1(opRead, RegFDRO, ReadbackWords),
	), nil
}

// ReadbackWords is the FDRO word count for a single-frame readback.
const ReadbackWords = 2 * device.FrameWords

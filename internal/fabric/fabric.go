package fabric

import (
	"fmt"

	"sacha/internal/device"
)

// Fabric is the live configurable fabric of one FPGA: the configuration
// memory plus the dynamic state the configuration does not capture — the
// flip-flop values and the input pad values.
//
// A partial reconfiguration is followed by a global set/reset of the
// rewritten CLB columns' flip-flops. The model defers that reset: a CLB
// frame write only marks its column, and the reset runs once per marked
// column at the first observation of flip-flop state (readback of a CLB
// frame, a Live decode, Step, Pin, SetPin, FFState) or at Settle. The
// result equals a reset after every frame write as long as nothing
// writes Mem directly between the last WriteFrame and that observation;
// whoever does (an adversary hook, an SEU injector) calls Settle first.
type Fabric struct {
	Geo *device.Geometry
	Mem *Image

	ff    []uint8 // FF ordinal (site*FFSlotsPerCLB + slot) -> current state
	pins  []uint8 // input pad pin number -> driven value
	epoch int64   // bumped on every configuration write

	// gsrDue flags the CLB columns (row*clbCols + ordinal) whose reset
	// is pending; gsrList lists them in marking order.
	gsrDue  []bool
	gsrList []int32

	clbCols int     // CLB columns per row
	colFFs  int     // flip-flops per CLB column
	colBase []int32 // CLB column -> its first frame
	// slots locates the configuration bits of each flip-flop of a CLB
	// column, by FF ordinal within the column; capture lists, per CLB
	// frame minor, the ordinals whose capture bit lies in that frame.
	slots   []ffSlot
	capture [][]uint16
}

// ffSlot holds where one flip-flop's used, init and capture bits sit,
// relative to its column's first frame (they can straddle frames).
type ffSlot struct {
	used, init, capt bitLoc
}

// bitLoc addresses one bit of a column: frame offset, word, shift.
type bitLoc struct {
	frame       uint16
	word, shift uint8
}

func locate(bit int) bitLoc {
	return bitLoc{uint16(bit / device.FrameBits), uint8(bit % device.FrameBits / 32), uint8(bit % 32)}
}

// in reads the bit from a column's frames.
func (l bitLoc) in(frames [][]uint32) uint32 { return frames[l.frame][l.word] >> l.shift & 1 }

// Epoch returns a counter that increases on every configuration write;
// callers caching decoded Live views use it for invalidation.
func (f *Fabric) Epoch() int64 { return f.epoch }

// New returns a fabric with an all-zero configuration memory.
func New(geo *device.Geometry) *Fabric {
	clbCols := geo.ColumnsOf(device.ColCLB)
	frames := geo.FramesPerColumn(device.ColCLB)
	f := &Fabric{
		Geo:     geo,
		Mem:     NewImage(geo),
		ff:      make([]uint8, geo.CLBs()*FFSlotsPerCLB),
		pins:    make([]uint8, NumPins(geo)),
		gsrDue:  make([]bool, geo.Rows*clbCols),
		clbCols: clbCols,
		colFFs:  geo.SitesPerColumn(device.ColCLB) * FFSlotsPerCLB,
		colBase: make([]int32, geo.Rows*clbCols),
		capture: make([][]uint16, frames),
	}
	for col := range f.colBase {
		base, _, err := geo.ColumnBase(col/clbCols, device.ColCLB, col%clbCols)
		if err != nil {
			panic(err)
		}
		f.colBase[col] = int32(base)
	}
	f.slots = ffSlots(geo)
	for i, s := range f.slots {
		f.capture[s.capt.frame] = append(f.capture[s.capt.frame], uint16(i))
	}
	return f
}

// ffSlots lists every CLB column's flip-flop slots by FF ordinal. A
// flip-flop whose bits do not fit the column (no modelled device has
// one) is left out: it keeps state 0 and never shows in readback.
func ffSlots(geo *device.Geometry) []ffSlot {
	colBits := geo.FramesPerColumn(device.ColCLB) * device.FrameBits
	colFFs := geo.SitesPerColumn(device.ColCLB) * FFSlotsPerCLB
	slots := make([]ffSlot, 0, colFFs)
	for i := 0; i < colFFs; i++ {
		base := i/FFSlotsPerCLB*CLBBits + ffBase + i%FFSlotsPerCLB*ffSlotBits
		if base+ffCaptureOff >= colBits {
			break
		}
		slots = append(slots, ffSlot{used: locate(base + ffUsedOff), init: locate(base + ffInitOff), capt: locate(base + ffCaptureOff)})
	}
	return slots
}

// WriteFrame stores one configuration frame, as the ICAP does during
// (re)configuration. If the frame belongs to a CLB column, the column's
// flip-flops are due for re-initialisation from their init bits, the
// global set/reset that follows a partial reconfiguration.
func (f *Fabric) WriteFrame(idx int, words []uint32) error {
	if idx < 0 || idx >= f.Mem.NumFrames() {
		return fmt.Errorf("fabric: frame %d out of range", idx)
	}
	if len(words) != device.FrameWords {
		return fmt.Errorf("fabric: frame data has %d words, want %d", len(words), device.FrameWords)
	}
	f.Mem.SetFrame(idx, words)
	f.epoch++
	kind, row, ord, _, err := f.Geo.ColumnOfFrame(idx)
	if err != nil {
		return err
	}
	if col := row*f.clbCols + ord; kind == device.ColCLB && !f.gsrDue[col] {
		f.gsrDue[col] = true
		f.gsrList = append(f.gsrList, int32(col))
	}
	return nil
}

// Settle applies every pending post-reconfiguration global set/reset.
// Observations of flip-flop state settle on their own; a caller that is
// about to write Mem directly settles first, so the reset still sees the
// configured init bits.
func (f *Fabric) Settle() {
	for _, col := range f.gsrList {
		f.resetColumnFFs(int(col))
		f.gsrDue[col] = false
	}
	f.gsrList = f.gsrList[:0]
}

// resetColumnFFs applies the global set/reset to all flip-flops of one
// CLB column: used FFs load their init bit, unused FFs lose their state.
func (f *Fabric) resetColumnFFs(col int) {
	frames := f.Mem.frames[f.colBase[col]:]
	ffs := f.ff[col*f.colFFs : (col+1)*f.colFFs]
	for i, s := range f.slots {
		ffs[i] = uint8(s.used.in(frames) & s.init.in(frames))
	}
}

// ReadbackFrame returns the frame as the ICAP readback sees it: the stored
// configuration bits, with every used flip-flop's capture bit replaced by
// the live flip-flop state. This is the register content that the paper's
// verifier must mask out with Msk before comparing bitstreams.
func (f *Fabric) ReadbackFrame(idx int) ([]uint32, error) {
	out := make([]uint32, device.FrameWords)
	if err := f.ReadbackFrameInto(idx, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadbackFrameInto is ReadbackFrame into a caller-provided buffer of
// FrameWords words, for scan loops (scrubbing, delta attestation) that
// must not allocate per frame.
func (f *Fabric) ReadbackFrameInto(idx int, out []uint32) error {
	if idx < 0 || idx >= f.Mem.NumFrames() {
		return fmt.Errorf("fabric: frame %d out of range", idx)
	}
	if len(out) != device.FrameWords {
		return fmt.Errorf("fabric: readback buffer of %d words, want %d", len(out), device.FrameWords)
	}
	copy(out, f.Mem.Frame(idx))
	kind, row, ord, minor, err := f.Geo.ColumnOfFrame(idx)
	if err != nil {
		return err
	}
	if kind != device.ColCLB {
		return nil
	}
	f.Settle()
	col := row*f.clbCols + ord
	ffs := f.ff[col*f.colFFs : (col+1)*f.colFFs]
	frames := f.Mem.frames[idx-minor:]
	for _, i := range f.capture[minor] {
		s := &f.slots[i]
		if s.used.in(frames) == 0 {
			continue
		}
		w, sh := s.capt.word, s.capt.shift
		out[w] = out[w]&^(1<<sh) | uint32(ffs[i]&1)<<sh
	}
	return nil
}

// SetPin drives an IOB input pad.
func (f *Fabric) SetPin(pin int, v uint8) error {
	if pin < 0 || pin >= len(f.pins) {
		return fmt.Errorf("fabric: pin %d out of range", pin)
	}
	f.pins[pin] = v & 1
	return nil
}

// Mask is the Msk of a geometry, the mask the Xilinx tools emit
// alongside a bitstream and the verifier applies in §6.1 of the paper:
// every bit is 1 (compare) except the flip-flop capture bits of all CLB
// columns, which are 0 (mask out). All CLB columns share one frame
// layout, so it holds one frame per CLB minor and one all-ones frame
// for every other frame. A Mask is read-only.
type Mask struct {
	geo   *device.Geometry
	words []uint32 // CLB minor m's frame at m*FrameWords, then the all-ones frame
}

// GenerateMask builds the Msk of a geometry from its flip-flop slots.
func GenerateMask(geo *device.Geometry) *Mask {
	m := &Mask{geo: geo, words: make([]uint32, (geo.FramesPerColumn(device.ColCLB)+1)*device.FrameWords)}
	for i := range m.words {
		m.words[i] = 0xFFFFFFFF
	}
	for _, s := range ffSlots(geo) {
		m.words[int(s.capt.frame)*device.FrameWords+int(s.capt.word)] &^= 1 << s.capt.shift
	}
	return m
}

// Frame returns frame idx's mask words without allocating. The slice is
// shared by every frame of the same layout and must not be written.
func (m *Mask) Frame(idx int) []uint32 {
	kind, _, _, minor, err := m.geo.ColumnOfFrame(idx)
	if err != nil {
		panic(err)
	}
	if kind != device.ColCLB {
		minor = len(m.words)/device.FrameWords - 1
	}
	return m.words[minor*device.FrameWords : (minor+1)*device.FrameWords]
}

// ApplyMask ands the mask into a copy of the frame data.
func ApplyMask(frame, mask []uint32) []uint32 {
	if len(frame) != len(mask) {
		panic("fabric: frame/mask length mismatch")
	}
	out := make([]uint32, len(frame))
	for i := range frame {
		out[i] = frame[i] & mask[i]
	}
	return out
}

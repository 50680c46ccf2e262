// Package device holds the geometry database for the modelled FPGAs.
//
// The primary device mirrors the Xilinx Virtex-6 XC6VLX240T used in the
// SACHa proof of concept: its configuration memory holds exactly 28,488
// frames of 81 32-bit words, its fabric 18,840 CLBs and 832 18-kbit BRAMs.
// The geometry is simplified to three column types (CLB, BRAM, CFG) laid
// out identically in each of four rows; DSP and IOB configuration is folded
// into the CFG column, as the paper itself omits dedicated primitives from
// its fabric overview.
//
// Frames are addressed either linearly (0 .. NumFrames-1) or through a
// Virtex-style Frame Address Register (FAR) with block-type, row, column
// and minor fields.
package device

import (
	"fmt"
	"sync"
)

// Frame dimensions shared by all modelled devices (Virtex-6 values).
const (
	FrameWords = 81              // 32-bit words per configuration frame
	FrameBytes = FrameWords * 4  // 324 bytes
	FrameBits  = FrameWords * 32 // 2592 bits
)

// ColumnKind identifies the resource type a configuration column drives.
type ColumnKind uint8

const (
	// ColCLB configures a column of CLBs: LUT truth tables, FF config and
	// switch-matrix routing.
	ColCLB ColumnKind = iota
	// ColBRAMInterconnect configures BRAM port wiring.
	ColBRAMInterconnect
	// ColBRAMContent holds BRAM initialisation/content bits.
	ColBRAMContent
	// ColCFG holds clocking, IOB and miscellaneous configuration.
	ColCFG
)

func (k ColumnKind) String() string {
	switch k {
	case ColCLB:
		return "CLB"
	case ColBRAMInterconnect:
		return "BRAM-INT"
	case ColBRAMContent:
		return "BRAM-CNT"
	case ColCFG:
		return "CFG"
	}
	return fmt.Sprintf("ColumnKind(%d)", uint8(k))
}

// FAR block-type codes, in the spirit of the Virtex-6 frame address
// register.
const (
	BlockTypeCLB  = 0 // CLB / interconnect / CFG columns
	BlockTypeBRAM = 1 // BRAM content columns
)

// ColumnSpec describes one column type within a row.
type ColumnSpec struct {
	Kind   ColumnKind
	Count  int // columns of this kind per row
	Frames int // frames per column (minor addresses)
	// Sites is the number of resource sites per column: CLBs for ColCLB,
	// BRAM36 primitives for BRAM columns, 0 for CFG.
	Sites int
}

// Geometry describes a device's configuration memory layout.
type Geometry struct {
	Name string
	Rows int
	// Columns lists the column specs in left-to-right order within a row.
	// Every row has the same layout.
	Columns []ColumnSpec

	// Resource totals for the resource report (Table 2 "Entire FPGA").
	ICAPs int
	DCMs  int

	// colOnce guards the lazily built address tables below. Frame-address
	// lookups sit on the configuration, readback and scrub hot paths, so
	// the layout is expanded once into tables that make FARForFrame,
	// FrameForFAR and ColumnOfFrame O(1) and allocation-free. The tables
	// assume Columns does not change after first use; geometries are
	// shared by pointer, so they are built once per device model.
	colOnce sync.Once
	colRefs []columnRef
	perRow  int
	clbs    int
	// frameCol maps a frame within a row to its colRefs index.
	frameCol []int32
	// farCol maps [FAR block type][FAR column] to a colRefs index.
	farCol [2][]int32
}

// FAR is a decoded frame address.
type FAR struct {
	BlockType int // BlockTypeCLB or BlockTypeBRAM
	Row       int
	Column    int // index among the columns of that block type in the row
	Minor     int // frame index within the column
}

// Encode packs a FAR into the 32-bit register layout
// [23:21]=block type, [20:16]=row, [15:7]=column, [6:0]=minor.
func (f FAR) Encode() uint32 {
	return uint32(f.BlockType&0x7)<<21 | uint32(f.Row&0x1F)<<16 |
		uint32(f.Column&0x1FF)<<7 | uint32(f.Minor&0x7F)
}

// DecodeFAR unpacks a 32-bit FAR register value.
func DecodeFAR(v uint32) FAR {
	return FAR{
		BlockType: int(v >> 21 & 0x7),
		Row:       int(v >> 16 & 0x1F),
		Column:    int(v >> 7 & 0x1FF),
		Minor:     int(v & 0x7F),
	}
}

// NumFrames returns the total number of configuration frames.
func (g *Geometry) NumFrames() int {
	g.rowColumns()
	return g.perRow * g.Rows
}

// CLBs returns the total CLB count.
func (g *Geometry) CLBs() int {
	g.rowColumns()
	return g.clbs
}

// BRAM18s returns the total 18-kbit BRAM count (2 per BRAM36 site).
func (g *Geometry) BRAM18s() int {
	n := 0
	for _, c := range g.Columns {
		if c.Kind == ColBRAMContent {
			n += c.Count * c.Sites
		}
	}
	return n * g.Rows * 2
}

// columnAt resolves a global column ordinal within a row to its spec and
// the index among columns of the same kind.
type columnRef struct {
	spec     ColumnSpec
	kindIdx  int // index among columns with the same FAR block type
	kindOrd  int // index among columns with the same ColumnKind
	firstFrm int // first frame (within the row) of this column
}

// rowColumns expands the per-row column layout and the address tables
// once and caches them.
func (g *Geometry) rowColumns() []columnRef {
	g.colOnce.Do(func() {
		kindOrd := map[ColumnKind]int{}
		for _, spec := range g.Columns {
			bt := farBlockType(spec.Kind)
			if spec.Kind == ColCLB {
				g.clbs += spec.Count * spec.Sites * g.Rows
			}
			for i := 0; i < spec.Count; i++ {
				ref := int32(len(g.colRefs))
				g.colRefs = append(g.colRefs, columnRef{
					spec:     spec,
					kindIdx:  len(g.farCol[bt]),
					kindOrd:  kindOrd[spec.Kind],
					firstFrm: g.perRow,
				})
				g.farCol[bt] = append(g.farCol[bt], ref)
				kindOrd[spec.Kind]++
				for m := 0; m < spec.Frames; m++ {
					g.frameCol = append(g.frameCol, ref)
				}
				g.perRow += spec.Frames
			}
		}
	})
	return g.colRefs
}

func farBlockType(k ColumnKind) int {
	if k == ColBRAMContent {
		return BlockTypeBRAM
	}
	return BlockTypeCLB
}

// framesPerRow returns the frame count of one row.
func (g *Geometry) framesPerRow() int {
	g.rowColumns()
	return g.perRow
}

// columnOfFrame resolves a linear frame index to its row, its column and
// its offset within the row.
func (g *Geometry) columnOfFrame(idx int) (ref *columnRef, row, rem int, err error) {
	refs := g.rowColumns()
	if idx < 0 || idx >= g.perRow*g.Rows {
		return nil, 0, 0, fmt.Errorf("device: frame %d out of range [0,%d)", idx, g.perRow*g.Rows)
	}
	row, rem = idx/g.perRow, idx%g.perRow
	return &refs[g.frameCol[rem]], row, rem, nil
}

// FARForFrame converts a linear frame index into a FAR.
func (g *Geometry) FARForFrame(idx int) (FAR, error) {
	ref, row, rem, err := g.columnOfFrame(idx)
	if err != nil {
		return FAR{}, err
	}
	return FAR{
		BlockType: farBlockType(ref.spec.Kind),
		Row:       row,
		Column:    ref.kindIdx,
		Minor:     rem - ref.firstFrm,
	}, nil
}

// FrameForFAR converts a FAR into a linear frame index. Every field is
// range-checked: FAR values arrive from the wire through the ICAP.
func (g *Geometry) FrameForFAR(f FAR) (int, error) {
	refs := g.rowColumns()
	if f.Row < 0 || f.Row >= g.Rows {
		return 0, fmt.Errorf("device: FAR row %d out of range", f.Row)
	}
	if f.BlockType < 0 || f.BlockType >= len(g.farCol) || f.Column < 0 || f.Column >= len(g.farCol[f.BlockType]) {
		return 0, fmt.Errorf("device: FAR block %d column %d not found", f.BlockType, f.Column)
	}
	ref := &refs[g.farCol[f.BlockType][f.Column]]
	if f.Minor < 0 || f.Minor >= ref.spec.Frames {
		return 0, fmt.Errorf("device: FAR minor %d out of range for column", f.Minor)
	}
	return f.Row*g.perRow + ref.firstFrm + f.Minor, nil
}

// ColumnOfFrame returns, for a linear frame index, the column kind, the
// row, the column ordinal *among columns of the same kind* within the row,
// and the minor (frame-within-column) index.
func (g *Geometry) ColumnOfFrame(idx int) (kind ColumnKind, row, kindOrdinal, minor int, err error) {
	ref, row, rem, err := g.columnOfFrame(idx)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	return ref.spec.Kind, row, ref.kindOrd, rem - ref.firstFrm, nil
}

// ColumnBase returns the linear index of the first frame of the ordinal-th
// column of the given kind in the given row, along with the column's frame
// count.
func (g *Geometry) ColumnBase(row int, kind ColumnKind, ordinal int) (firstFrame, frames int, err error) {
	if row < 0 || row >= g.Rows {
		return 0, 0, fmt.Errorf("device: row %d out of range", row)
	}
	count := 0
	frm := 0
	for _, spec := range g.Columns {
		for i := 0; i < spec.Count; i++ {
			if spec.Kind == kind {
				if count == ordinal {
					return row*g.framesPerRow() + frm, spec.Frames, nil
				}
				count++
			}
			frm += spec.Frames
		}
	}
	return 0, 0, fmt.Errorf("device: no column %d of kind %v", ordinal, kind)
}

// ColumnsOf returns the number of columns of the given kind per row.
func (g *Geometry) ColumnsOf(kind ColumnKind) int {
	n := 0
	for _, c := range g.Columns {
		if c.Kind == kind {
			n += c.Count
		}
	}
	return n
}

// SitesPerColumn returns the resource sites per column of the given kind
// (CLBs for ColCLB, BRAM36s for BRAM columns).
func (g *Geometry) SitesPerColumn(kind ColumnKind) int {
	for _, c := range g.Columns {
		if c.Kind == kind {
			return c.Sites
		}
	}
	return 0
}

// FramesPerColumn returns the frame count of a column of the given kind.
func (g *Geometry) FramesPerColumn(kind ColumnKind) int {
	for _, c := range g.Columns {
		if c.Kind == kind {
			return c.Frames
		}
	}
	return 0
}

// ByName resolves a device name used by the command-line tools.
func ByName(name string) (*Geometry, error) {
	switch name {
	case "XC6VLX240T", "xc6vlx240t":
		return XC6VLX240T(), nil
	case "SmallLX", "smalllx":
		return SmallLX(), nil
	case "BigLX", "biglx":
		return BigLX(), nil
	case "TinyLX", "tinylx":
		return TinyLX(), nil
	}
	return nil, fmt.Errorf("device: unknown device %q (available: XC6VLX240T, SmallLX, BigLX, TinyLX)", name)
}

// XC6VLX240T returns the geometry modelling the paper's device.
//
// Layout per row (×4 rows):
//
//	157 CLB columns × 42 frames, 30 CLBs each
//	  4 BRAM interconnect columns × 28 frames, 26 BRAM36 each
//	  4 BRAM content columns × 96 frames
//	  1 CFG column × 32 frames
//
// Totals: frames = 4×(157×42 + 4×28 + 4×96 + 32) = 28,488;
// CLBs = 4×157×30 = 18,840; BRAM18 = 4×4×26×2 = 832 — all equal to the
// values the paper reports for the XC6VLX240T.
func XC6VLX240T() *Geometry {
	return &Geometry{
		Name: "XC6VLX240T",
		Rows: 4,
		Columns: []ColumnSpec{
			{Kind: ColCLB, Count: 157, Frames: 42, Sites: 30},
			{Kind: ColBRAMInterconnect, Count: 4, Frames: 28, Sites: 26},
			{Kind: ColBRAMContent, Count: 4, Frames: 96, Sites: 26},
			{Kind: ColCFG, Count: 1, Frames: 32},
		},
		ICAPs: 1,
		DCMs:  12,
	}
}

// SmallLX returns a small synthetic sibling device for scaling sweeps
// (about one eighth of the XC6VLX240T).
func SmallLX() *Geometry {
	return &Geometry{
		Name: "SmallLX",
		Rows: 2,
		Columns: []ColumnSpec{
			{Kind: ColCLB, Count: 40, Frames: 42, Sites: 30},
			{Kind: ColBRAMInterconnect, Count: 1, Frames: 28, Sites: 26},
			{Kind: ColBRAMContent, Count: 1, Frames: 96, Sites: 26},
			{Kind: ColCFG, Count: 1, Frames: 32},
		},
		ICAPs: 1,
		DCMs:  4,
	}
}

// TinyLX returns a deliberately minimal synthetic device: 112 frames
// total, sized so a full-device attestation finishes in milliseconds.
// It is the target of choice for fault-injection sweeps, fleet tests and
// loopback demos where SmallLX is still three orders of magnitude too
// slow to run hundreds of times. The column mix keeps every invariant
// the fabric model needs: the CLB columns hold the 64-bit nonce register
// (8 sites x 8 FF slots), the CFG column's 4 frames cover the IOB pin
// table, and the BRAM columns exist so region accounting matches the
// real parts.
func TinyLX() *Geometry {
	return &Geometry{
		Name: "TinyLX",
		Rows: 2,
		Columns: []ColumnSpec{
			{Kind: ColCLB, Count: 4, Frames: 12, Sites: 8},
			{Kind: ColBRAMInterconnect, Count: 1, Frames: 2, Sites: 26},
			{Kind: ColBRAMContent, Count: 1, Frames: 2, Sites: 26},
			{Kind: ColCFG, Count: 1, Frames: 4},
		},
		ICAPs: 1,
		DCMs:  1,
	}
}

// BigLX returns a large synthetic sibling device for scaling sweeps
// (about twice the XC6VLX240T).
func BigLX() *Geometry {
	return &Geometry{
		Name: "BigLX",
		Rows: 6,
		Columns: []ColumnSpec{
			{Kind: ColCLB, Count: 210, Frames: 42, Sites: 30},
			{Kind: ColBRAMInterconnect, Count: 6, Frames: 28, Sites: 26},
			{Kind: ColBRAMContent, Count: 6, Frames: 96, Sites: 26},
			{Kind: ColCFG, Count: 1, Frames: 32},
		},
		ICAPs: 1,
		DCMs:  18,
	}
}

package device

import (
	"testing"
	"testing/quick"
)

func TestXC6VLX240TPaperNumbers(t *testing.T) {
	g := XC6VLX240T()
	if got := g.NumFrames(); got != 28488 {
		t.Errorf("NumFrames = %d, want 28488 (paper §6.1)", got)
	}
	if got := g.CLBs(); got != 18840 {
		t.Errorf("CLBs = %d, want 18840 (paper Table 2)", got)
	}
	if got := g.BRAM18s(); got != 832 {
		t.Errorf("BRAM18s = %d, want 832 (paper Table 2)", got)
	}
	if g.ICAPs != 1 || g.DCMs != 12 {
		t.Errorf("ICAPs=%d DCMs=%d, want 1 and 12 (paper Table 2)", g.ICAPs, g.DCMs)
	}
}

func TestFrameConstants(t *testing.T) {
	if FrameWords != 81 || FrameBytes != 324 || FrameBits != 2592 {
		t.Fatalf("frame constants wrong: %d words %d bytes %d bits", FrameWords, FrameBytes, FrameBits)
	}
}

func TestFAREncodeDecode(t *testing.T) {
	cases := []FAR{
		{BlockTypeCLB, 0, 0, 0},
		{BlockTypeBRAM, 3, 3, 95},
		{BlockTypeCLB, 3, 161, 41},
		{BlockTypeCLB, 1, 7, 13},
	}
	for _, f := range cases {
		got := DecodeFAR(f.Encode())
		if got != f {
			t.Errorf("round-trip %+v -> %+v", f, got)
		}
	}
}

func TestFARLinearRoundTripAll(t *testing.T) {
	for _, g := range []*Geometry{XC6VLX240T(), SmallLX(), BigLX(), TinyLX()} {
		n := g.NumFrames()
		seen := make(map[uint32]bool, n)
		for i := 0; i < n; i++ {
			far, err := g.FARForFrame(i)
			if err != nil {
				t.Fatalf("%s: FARForFrame(%d): %v", g.Name, i, err)
			}
			enc := far.Encode()
			if seen[enc] {
				t.Fatalf("%s: duplicate FAR %+v at frame %d", g.Name, far, i)
			}
			seen[enc] = true
			back, err := g.FrameForFAR(far)
			if err != nil {
				t.Fatalf("%s: FrameForFAR(%+v): %v", g.Name, far, err)
			}
			if back != i {
				t.Fatalf("%s: frame %d -> %+v -> %d", g.Name, i, far, back)
			}
		}
	}
}

func TestFARForFrameErrors(t *testing.T) {
	g := XC6VLX240T()
	if _, err := g.FARForFrame(-1); err == nil {
		t.Error("negative frame index accepted")
	}
	if _, err := g.FARForFrame(g.NumFrames()); err == nil {
		t.Error("out-of-range frame index accepted")
	}
	if _, err := g.FrameForFAR(FAR{Row: 99}); err == nil {
		t.Error("bad FAR row accepted")
	}
	if _, err := g.FrameForFAR(FAR{BlockType: BlockTypeCLB, Column: 9999}); err == nil {
		t.Error("bad FAR column accepted")
	}
	if _, err := g.FrameForFAR(FAR{BlockType: BlockTypeCLB, Column: 0, Minor: 10000}); err == nil {
		t.Error("bad FAR minor accepted")
	}
	// FARs arrive from the wire through the ICAP: every decodable value
	// outside the layout must be an error, never a panic.
	for _, g := range []*Geometry{XC6VLX240T(), SmallLX(), BigLX(), TinyLX()} {
		bad := []FAR{{Row: g.Rows}, {Row: -1}, {Column: -1}, {Minor: -1}}
		for bt := 2; bt < 8; bt++ {
			bad = append(bad, FAR{BlockType: bt})
		}
		// One past the last column of each block type.
		last := map[int]int{}
		for i := 0; i < g.NumFrames(); i++ {
			far, err := g.FARForFrame(i)
			if err != nil {
				t.Fatal(err)
			}
			if far.Column+1 > last[far.BlockType] {
				last[far.BlockType] = far.Column + 1
			}
		}
		for bt, n := range last {
			bad = append(bad, FAR{BlockType: bt, Column: n})
		}
		for _, far := range bad {
			if idx, err := g.FrameForFAR(far); err == nil {
				t.Errorf("%s: FrameForFAR(%+v) = %d, want an error", g.Name, far, idx)
			}
			if idx, err := g.FrameForFAR(DecodeFAR(far.Encode())); err == nil && far.Row >= 0 && far.Column >= 0 && far.Minor >= 0 {
				t.Errorf("%s: FrameForFAR(decode(%+v)) = %d, want an error", g.Name, far, idx)
			}
		}
	}
}

func TestColumnOfFrame(t *testing.T) {
	g := XC6VLX240T()
	// First frame of the device is minor 0 of the first CLB column.
	kind, row, col, minor, err := g.ColumnOfFrame(0)
	if err != nil || kind != ColCLB || row != 0 || col != 0 || minor != 0 {
		t.Fatalf("frame 0: kind=%v row=%d col=%d minor=%d err=%v", kind, row, col, minor, err)
	}
	// Last frame of row 0 is the last CFG frame.
	perRow := g.NumFrames() / g.Rows
	kind, row, col, minor, err = g.ColumnOfFrame(perRow - 1)
	if err != nil || kind != ColCFG || row != 0 || minor != 31 {
		t.Fatalf("last frame row 0: kind=%v row=%d col=%d minor=%d err=%v", kind, row, col, minor, err)
	}
	// First frame of row 1.
	_, row, _, _, err = g.ColumnOfFrame(perRow)
	if err != nil || row != 1 {
		t.Fatalf("first frame row 1: row=%d err=%v", row, err)
	}
	if _, _, _, _, err := g.ColumnOfFrame(-5); err == nil {
		t.Error("ColumnOfFrame accepted negative index")
	}
	// Every frame of every geometry lies in the column ColumnBase
	// reports for its (row, kind, ordinal).
	for _, g := range []*Geometry{XC6VLX240T(), SmallLX(), BigLX(), TinyLX()} {
		for idx := 0; idx < g.NumFrames(); idx++ {
			kind, row, ord, minor, err := g.ColumnOfFrame(idx)
			if err != nil {
				t.Fatalf("%s: ColumnOfFrame(%d): %v", g.Name, idx, err)
			}
			base, frames, err := g.ColumnBase(row, kind, ord)
			if err != nil || base+minor != idx || minor < 0 || minor >= frames {
				t.Fatalf("%s: frame %d -> %v row %d col %d minor %d, but ColumnBase = %d,%d,%v",
					g.Name, idx, kind, row, ord, minor, base, frames, err)
			}
		}
		if _, _, _, _, err := g.ColumnOfFrame(g.NumFrames()); err == nil {
			t.Errorf("%s: ColumnOfFrame accepted the frame past the end", g.Name)
		}
	}
}

func TestColumnKindString(t *testing.T) {
	if ColCLB.String() != "CLB" || ColBRAMContent.String() != "BRAM-CNT" ||
		ColBRAMInterconnect.String() != "BRAM-INT" || ColCFG.String() != "CFG" {
		t.Error("ColumnKind.String values changed")
	}
	if ColumnKind(99).String() == "" {
		t.Error("unknown kind should still stringify")
	}
}

func TestSiblingDevicesOrdering(t *testing.T) {
	s, m, b := SmallLX(), XC6VLX240T(), BigLX()
	if !(s.NumFrames() < m.NumFrames() && m.NumFrames() < b.NumFrames()) {
		t.Errorf("frame ordering: %d %d %d", s.NumFrames(), m.NumFrames(), b.NumFrames())
	}
	if !(s.CLBs() < m.CLBs() && m.CLBs() < b.CLBs()) {
		t.Errorf("CLB ordering: %d %d %d", s.CLBs(), m.CLBs(), b.CLBs())
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"XC6VLX240T", "xc6vlx240t", "SmallLX", "smalllx", "BigLX", "biglx"} {
		g, err := ByName(name)
		if err != nil || g == nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("XC7Z020"); err == nil {
		t.Error("unknown device accepted")
	}
}

func TestColumnQueries(t *testing.T) {
	g := XC6VLX240T()
	if got := g.ColumnsOf(ColCLB); got != 157 {
		t.Errorf("CLB columns = %d", got)
	}
	if got := g.SitesPerColumn(ColCLB); got != 30 {
		t.Errorf("CLB sites = %d", got)
	}
	if got := g.FramesPerColumn(ColBRAMContent); got != 96 {
		t.Errorf("BRAM content frames = %d", got)
	}
	if got := g.SitesPerColumn(ColCFG); got != 0 {
		t.Errorf("CFG sites = %d", got)
	}
	if got := g.FramesPerColumn(ColumnKind(99)); got != 0 {
		t.Errorf("unknown kind frames = %d", got)
	}
	// ColumnBase spot checks: first CLB column of row 1 starts one full
	// row of frames in.
	base, n, err := g.ColumnBase(1, ColCLB, 0)
	if err != nil || n != 42 || base != g.NumFrames()/g.Rows {
		t.Errorf("ColumnBase(1, CLB, 0) = %d,%d,%v", base, n, err)
	}
	if _, _, err := g.ColumnBase(99, ColCLB, 0); err == nil {
		t.Error("bad row accepted")
	}
	if _, _, err := g.ColumnBase(0, ColCLB, 999); err == nil {
		t.Error("bad ordinal accepted")
	}
}

// Property: random valid FARs encode to 32 bits and decode back unchanged.
func TestQuickFARCodec(t *testing.T) {
	f := func(bt uint8, row, col, minor uint16) bool {
		far := FAR{
			BlockType: int(bt % 2),
			Row:       int(row % 32),
			Column:    int(col % 512),
			Minor:     int(minor % 128),
		}
		return DecodeFAR(far.Encode()) == far
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

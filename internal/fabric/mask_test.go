package fabric

import (
	"slices"
	"testing"

	"sacha/internal/device"
)

// imageMask is the image-building Msk algorithm the per-minor table
// replaced, kept as its oracle: an all-ones full-device image with the
// flip-flop capture bit of every slot of every CLB column cleared.
func imageMask(geo *device.Geometry) *Image {
	m := NewImage(geo)
	for i := 0; i < m.NumFrames(); i++ {
		f := m.Frame(i)
		for w := range f {
			f[w] = 0xFFFFFFFF
		}
	}
	sites := geo.SitesPerColumn(device.ColCLB)
	for row := 0; row < geo.Rows; row++ {
		for col := 0; col < geo.ColumnsOf(device.ColCLB); col++ {
			cv, err := m.columnView(row, device.ColCLB, col)
			if err != nil {
				panic(err)
			}
			for clb := 0; clb < sites; clb++ {
				for slot := 0; slot < FFSlotsPerCLB; slot++ {
					cv.setBit(clb*CLBBits+ffBase+slot*ffSlotBits+ffCaptureOff, 0)
				}
			}
		}
	}
	return m
}

// Every frame of the per-minor Msk equals the image-built one, on the
// smallest device, the scaling sibling and the paper's XC6VLX240T.
func TestMaskEqualsImageOracle(t *testing.T) {
	for _, geo := range []*device.Geometry{device.TinyLX(), device.SmallLX(), device.XC6VLX240T()} {
		want := imageMask(geo)
		m := GenerateMask(geo)
		for idx := 0; idx < geo.NumFrames(); idx++ {
			if !slices.Equal(m.Frame(idx), want.Frame(idx)) {
				t.Fatalf("%s frame %d: mask differs from the image-built oracle", geo.Name, idx)
			}
		}
	}
}

// Mask.Frame runs once per compared frame (plan verdicts, scrub scans):
// it must not allocate.
func TestMaskFrameZeroAlloc(t *testing.T) {
	geo := device.SmallLX()
	m := GenerateMask(geo)
	n := geo.NumFrames()
	idx, ones := 0, 0
	avg := testing.AllocsPerRun(1000, func() {
		ones += int(m.Frame(idx)[0] & 1)
		idx = (idx + 37) % n
	})
	if avg != 0 {
		t.Fatalf("Mask.Frame allocates %.1f objects per call, want 0", avg)
	}
	if ones == 0 {
		t.Fatal("no mask frame read")
	}
}

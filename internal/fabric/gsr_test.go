package fabric

import (
	"math/rand"
	"slices"
	"testing"

	"sacha/internal/device"
	"sacha/internal/netlist"
)

// randomizeFFs sets the used and init bits of every FF slot in the
// region's CLB columns at random, so frame writes re-initialise a mix of
// used FFs holding 0 and 1 and of unused ones.
func randomizeFFs(im *Image, region *Region, rng *rand.Rand) {
	sites := im.Geo.SitesPerColumn(device.ColCLB)
	for _, rc := range region.CLBCols {
		cv, err := im.columnView(rc[0], device.ColCLB, rc[1])
		if err != nil {
			panic(err)
		}
		for i := 0; i < sites*FFSlotsPerCLB; i++ {
			base := i/FFSlotsPerCLB*CLBBits + ffBase + i%FFSlotsPerCLB*ffSlotBits
			cv.setBit(base+ffUsedOff, uint32(rng.Intn(2)))
			cv.setBit(base+ffInitOff, uint32(rng.Intn(2)))
		}
	}
}

// TestGSRDeferredEqualsPerFrame runs one seeded sequence of frame writes,
// direct Mem flips, Live decodes, clock steps, pin drives and readbacks
// on two fabrics. The reference settles after every WriteFrame — the
// global set/reset per written frame — while the other leaves the reset
// to the first observation. Every readback word and every FF state must
// agree.
func TestGSRDeferredEqualsPerFrame(t *testing.T) {
	for _, tc := range []struct {
		geo *device.Geometry
		ops int
	}{{device.TinyLX(), 600}, {device.SmallLX(), 300}} {
		geo := tc.geo
		t.Run(geo.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			region := AppRegion(geo)
			frames := region.Frames()
			golden := NewImage(geo)
			p, err := PlaceDesign(golden, region, netlist.Counter(4))
			if err != nil {
				t.Fatal(err)
			}
			variant := golden.Clone()
			randomizeFFs(variant, region, rng)
			sources := []*Image{golden, variant}

			lazy, eager := New(geo), New(geo)
			fabs := []*Fabric{lazy, eager}
			lives := make([]*Live, 2)
			gotL, gotE := make([]uint32, device.FrameWords), make([]uint32, device.FrameWords)
			compareFrame := func(op, idx int) {
				t.Helper()
				errL := lazy.ReadbackFrameInto(idx, gotL)
				errE := eager.ReadbackFrameInto(idx, gotE)
				if errL != nil || errE != nil {
					t.Fatalf("op %d: readback %d: %v / %v", op, idx, errL, errE)
				}
				if !slices.Equal(gotL, gotE) {
					t.Fatalf("op %d: frame %d reads back differently with the deferred reset", op, idx)
				}
			}
			compareLive := func(op int) {
				t.Helper()
				if (lives[0] == nil) != (lives[1] == nil) {
					t.Fatalf("op %d: Live decoded on one fabric only", op)
				}
				if lives[0] != nil && !slices.Equal(lives[0].FFState(), lives[1].FFState()) {
					t.Fatalf("op %d: FFState differs with the deferred reset", op)
				}
			}

			// Each round writes a burst of frames, may flip a bit in Mem
			// directly (settled first, as every direct writer must), and
			// then observes the fabric one way.
			for op := 0; op < tc.ops; op++ {
				var last int
				for n := rng.Intn(17); n > 0; n-- {
					last = frames[rng.Intn(len(frames))]
					src := sources[rng.Intn(len(sources))].Frame(last)
					for _, f := range fabs {
						if err := f.WriteFrame(last, src); err != nil {
							t.Fatal(err)
						}
					}
					eager.Settle()
				}
				kind, row, col, _, err := geo.ColumnOfFrame(last)
				if err != nil {
					t.Fatal(err)
				}
				if rng.Intn(2) == 0 {
					// An adversary or an upset writes Mem: an FF's used or
					// init bit in the column written last, or any bit.
					ff := rng.Intn(geo.SitesPerColumn(device.ColCLB) * FFSlotsPerCLB)
					bit := ff/FFSlotsPerCLB*CLBBits + ffBase + ff%FFSlotsPerCLB*ffSlotBits + rng.Intn(2)
					idx, w, b := frames[rng.Intn(len(frames))], rng.Intn(device.FrameWords), rng.Intn(32)
					for _, f := range fabs {
						f.Settle()
						if kind != device.ColCLB {
							f.Mem.Frame(idx)[w] ^= 1 << uint(b)
							continue
						}
						cv, err := f.Mem.columnView(row, device.ColCLB, col)
						if err != nil {
							t.Fatal(err)
						}
						cv.setBit(bit, cv.bit(bit)^1)
					}
				}
				switch rng.Intn(5) {
				case 0: // decode the region afresh
					for i, f := range fabs {
						l, err := f.Live(region)
						if err != nil {
							l = nil // a combinational loop: both fabrics must agree
						}
						lives[i] = l
					}
					compareLive(op)
				case 1: // maybe clock a possibly stale Live view
					if rng.Intn(3) < 2 {
						for _, l := range lives {
							if l != nil {
								_ = l.Step()
							}
						}
					}
					compareLive(op)
				case 2: // maybe drive the enable pad, read the outputs
					if v := rng.Intn(3); v < 2 {
						for _, l := range lives {
							if l != nil {
								_ = l.InputPin(p, "en", uint8(v))
							}
						}
					}
					if lives[0] != nil {
						for name := range p.OutputPin {
							a, errA := lives[0].OutputPin(p, name)
							b, errB := lives[1].OutputPin(p, name)
							if a != b || (errA == nil) != (errB == nil) {
								t.Fatalf("op %d: output %s = %d / %d", op, name, a, b)
							}
						}
					}
					compareLive(op)
				case 3: // read back the column written last
					base, n, err := geo.ColumnBase(row, kind, col)
					if err != nil {
						t.Fatal(err)
					}
					for idx := base; idx < base+n; idx++ {
						compareFrame(op, idx)
					}
				default:
					compareFrame(op, frames[rng.Intn(len(frames))])
				}
			}
			for idx := 0; idx < geo.NumFrames(); idx++ {
				compareFrame(tc.ops, idx)
			}
		})
	}
}

// BenchmarkFullOverwrite is the device model's cost of one full
// reconfiguration plus readback: every frame of a SmallLX written and
// then read back.
func BenchmarkFullOverwrite(b *testing.B) {
	geo := device.SmallLX()
	golden := NewImage(geo)
	region := AppRegion(geo)
	if _, err := PlaceDesign(golden, region, netlist.Counter(8)); err != nil {
		b.Fatal(err)
	}
	randomizeFFs(golden, region, rand.New(rand.NewSource(1)))
	f := New(geo)
	out := make([]uint32, device.FrameWords)
	n := geo.NumFrames()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for idx := 0; idx < n; idx++ {
			if err := f.WriteFrame(idx, golden.Frame(idx)); err != nil {
				b.Fatal(err)
			}
		}
		for idx := 0; idx < n; idx++ {
			if err := f.ReadbackFrameInto(idx, out); err != nil {
				b.Fatal(err)
			}
		}
	}
}

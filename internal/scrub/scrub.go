// Package scrub implements configuration-memory scrubbing, the
// error-detection use of ICAP readback the paper describes in §2.1.3:
// radiation-induced Single Event Upsets flip configuration bits, and a
// scrubber periodically reads the configuration back, compares it against
// the golden image (through the register-capture mask) and rewrites
// corrupted frames.
//
// SACHa targets malicious changes rather than faults, but the machinery
// is the same readback path; this package makes the fault-detection
// variant available and provides the fault injector used by the
// failure-injection tests.
package scrub

import (
	"fmt"
	"math/bits"
	"math/rand"

	"sacha/internal/device"
	"sacha/internal/fabric"
)

// Flip identifies one upset configuration bit.
type Flip struct {
	Frame int
	Word  int
	Bit   int
}

// Scrubber repairs a fabric against a golden image.
type Scrubber struct {
	Fab    *fabric.Fabric
	Golden *fabric.Image
	Msk    *fabric.Mask

	// Scans, FlipsFound and FramesRepaired count scrubber activity.
	Scans          int
	FlipsFound     int
	FramesRepaired int

	// rbScratch is the reused readback buffer: a periodic scrubber runs
	// for the lifetime of the device, so the clean-scan path (no upsets,
	// the overwhelmingly common case) must not allocate at all.
	rbScratch []uint32
}

// New returns a scrubber; the mask is derived from the geometry.
func New(fab *fabric.Fabric, golden *fabric.Image) *Scrubber {
	return &Scrubber{Fab: fab, Golden: golden, Msk: fabric.GenerateMask(fab.Geo)}
}

// scanFlipsHint pre-sizes the flips slice on the first upset found: an
// SEU event usually flips a handful of bits, so one allocation covers
// the realistic scan while the clean path stays allocation-free.
const scanFlipsHint = 64

// Scan reads back every frame and returns the upset bits (positions where
// the masked readback differs from the masked golden image). A clean scan
// allocates nothing.
func (s *Scrubber) Scan() ([]Flip, error) {
	if s.rbScratch == nil {
		s.rbScratch = make([]uint32, device.FrameWords)
	}
	var flips []Flip
	for idx := 0; idx < s.Fab.Geo.NumFrames(); idx++ {
		if err := s.Fab.ReadbackFrameInto(idx, s.rbScratch); err != nil {
			return nil, err
		}
		mask := s.Msk.Frame(idx)
		want := s.Golden.Frame(idx)
		for w := 0; w < device.FrameWords; w++ {
			diff := (s.rbScratch[w] ^ want[w]) & mask[w]
			for diff != 0 {
				bit := bits.TrailingZeros32(diff)
				if flips == nil {
					flips = make([]Flip, 0, scanFlipsHint)
				}
				flips = append(flips, Flip{Frame: idx, Word: w, Bit: bit})
				diff &= diff - 1 // clear the lowest set bit
			}
		}
	}
	s.Scans++
	s.FlipsFound += len(flips)
	return flips, nil
}

// Repair rewrites every frame that contains an upset with its golden
// content, as an ICAP-based scrubber does.
func (s *Scrubber) Repair(flips []Flip) error {
	done := map[int]bool{}
	for _, f := range flips {
		if done[f.Frame] {
			continue
		}
		done[f.Frame] = true
		if err := s.Fab.WriteFrame(f.Frame, s.Golden.Frame(f.Frame)); err != nil {
			return fmt.Errorf("scrub: repairing frame %d: %w", f.Frame, err)
		}
		s.FramesRepaired++
	}
	return nil
}

// ScrubOnce scans and repairs, returning what was found.
func (s *Scrubber) ScrubOnce() ([]Flip, error) {
	flips, err := s.Scan()
	if err != nil {
		return nil, err
	}
	return flips, s.Repair(flips)
}

// InjectSEUs flips n random configuration bits in the fabric, modelling
// single event upsets. It returns the injected positions (which may
// include masked capture-bit positions — a real particle does not care).
func InjectSEUs(fab *fabric.Fabric, rng *rand.Rand, n int) []Flip {
	fab.Settle() // the upsets strike a fabric that finished its reset
	flips := make([]Flip, 0, n)
	for i := 0; i < n; i++ {
		f := Flip{
			Frame: rng.Intn(fab.Geo.NumFrames()),
			Word:  rng.Intn(device.FrameWords),
			Bit:   rng.Intn(32),
		}
		fab.Mem.Frame(f.Frame)[f.Word] ^= 1 << uint(f.Bit)
		flips = append(flips, f)
	}
	return flips
}

package fabric

import (
	"fmt"

	"sacha/internal/device"
)

// liveLUT is a decoded, active look-up table.
type liveLUT struct {
	net   int
	truth uint64
	sels  [6]uint64
	nIn   int
}

// liveFF is a decoded, active flip-flop.
type liveFF struct {
	ord int // FF ordinal: site*FFSlotsPerCLB + slot
	sel uint64
}

// liveIOB is a decoded, active IOB pin.
type liveIOB struct {
	pin    int
	output bool
	sel    uint64
}

// Live is the functional view of one region, decoded from the
// configuration bits currently in the fabric. It shares flip-flop and pin
// state with the fabric, so stepping a Live design changes what the ICAP
// readback captures.
type Live struct {
	fab              *Fabric
	lutNets, pinBase int
	luts             []liveLUT
	ffs              []liveFF
	iobs             []liveIOB
	values           map[int]uint8 // LUT net -> settled value
}

// Live decodes the region's configuration bits into an executable design
// and settles its combinational logic. It returns an error if the decoded
// logic does not converge (combinational loop).
func (f *Fabric) Live(region *Region) (*Live, error) {
	f.Settle()
	_, lutNets, pinBase := netCounts(f.Geo)
	l := &Live{fab: f, lutNets: lutNets, pinBase: pinBase, values: make(map[int]uint8)}
	sites := f.Geo.SitesPerColumn(device.ColCLB)
	for _, rc := range region.CLBCols {
		cv, err := f.Mem.columnView(rc[0], device.ColCLB, rc[1])
		if err != nil {
			return nil, err
		}
		for clb := 0; clb < sites; clb++ {
			site := SiteIndex(f.Geo, rc[0], rc[1], clb)
			for slot := 0; slot < LUTSlotsPerCLB; slot++ {
				base := clb*CLBBits + slot*lutSlotBits
				if cv.bit(base+lutUsedOff) != 1 {
					continue
				}
				lut := liveLUT{
					net:   LUTNet(f.Geo, site, slot),
					truth: cv.uint(base+lutTruthOff, 64),
					nIn:   6,
				}
				for k := 0; k < 6; k++ {
					lut.sels[k] = cv.uint(base+lutSelOff+k*selWidth, selWidth)
				}
				l.luts = append(l.luts, lut)
			}
			for slot := 0; slot < FFSlotsPerCLB; slot++ {
				base := clb*CLBBits + ffBase + slot*ffSlotBits
				if cv.bit(base+ffUsedOff) != 1 {
					continue
				}
				l.ffs = append(l.ffs, liveFF{
					ord: site*FFSlotsPerCLB + slot,
					sel: cv.uint(base+ffSelOff, selWidth),
				})
			}
		}
	}
	for _, row := range region.CFGRows {
		cv, err := f.Mem.columnView(row, device.ColCFG, 0)
		if err != nil {
			return nil, err
		}
		for p := 0; p < IOBPinsPerRow; p++ {
			pin := row*IOBPinsPerRow + p
			if pin < region.PinBase || pin >= region.PinBase+region.PinCount {
				continue
			}
			base := p * iobEntryBits
			if cv.bit(base+iobUsedOff) != 1 {
				continue
			}
			l.iobs = append(l.iobs, liveIOB{
				pin:    pin,
				output: cv.bit(base+iobDirOff) == 1,
				sel:    cv.uint(base+iobSelOff, selWidth),
			})
		}
	}
	if err := l.settle(); err != nil {
		return nil, err
	}
	return l, nil
}

// resolve returns the value carried by a routing selector.
func (l *Live) resolve(sel uint64) uint8 {
	switch sel {
	case SelUnconnected:
		return 0
	case SelConst1:
		return 1
	}
	net := int(sel) - selNetBase
	switch {
	case net < l.lutNets:
		return l.values[net]
	case net < l.pinBase:
		return l.fab.ff[net-l.lutNets]
	case net-l.pinBase < len(l.fab.pins):
		return l.fab.pins[net-l.pinBase]
	}
	return 0 // a selector past the last pad reads as unconnected
}

// settle iterates combinational evaluation to a fixpoint.
func (l *Live) settle() error {
	for pass := 0; pass <= len(l.luts)+1; pass++ {
		changed := false
		for i := range l.luts {
			lut := &l.luts[i]
			idx := 0
			for k := 0; k < lut.nIn; k++ {
				if l.resolve(lut.sels[k]) != 0 {
					idx |= 1 << uint(k)
				}
			}
			v := uint8(lut.truth >> uint(idx) & 1)
			if l.values[lut.net] != v {
				l.values[lut.net] = v
				changed = true
			}
		}
		if !changed {
			return nil
		}
	}
	return fmt.Errorf("fabric: combinational logic did not converge (loop in configuration)")
}

// Step applies one clock edge to the region: all flip-flops latch
// simultaneously, then logic settles.
func (l *Live) Step() error {
	l.fab.Settle()
	next := make([]uint8, len(l.ffs))
	for i, ff := range l.ffs {
		next[i] = l.resolve(ff.sel)
	}
	for i, ff := range l.ffs {
		l.fab.ff[ff.ord] = next[i]
	}
	return l.settle()
}

// SetPin drives an input pad and re-settles the logic.
func (l *Live) SetPin(pin int, v uint8) error {
	if err := l.fab.SetPin(pin, v); err != nil {
		return err
	}
	l.fab.Settle()
	return l.settle()
}

// Pin returns the value observable on an IOB pad: for output pads the
// driven value, for input pads the externally applied value.
func (l *Live) Pin(pin int) (uint8, error) {
	l.fab.Settle()
	for _, iob := range l.iobs {
		if iob.pin != pin {
			continue
		}
		if iob.output {
			return l.resolve(iob.sel), nil
		}
		return l.fab.pins[pin], nil
	}
	return 0, fmt.Errorf("fabric: pin %d not configured in this region", pin)
}

// NumLUTs returns the number of active LUTs decoded from the region.
func (l *Live) NumLUTs() int { return len(l.luts) }

// NumFFs returns the number of active flip-flops decoded from the region.
func (l *Live) NumFFs() int { return len(l.ffs) }

// FFState returns the current state of the region's flip-flops in decode
// order (column order, then CLB, then slot).
func (l *Live) FFState() []uint8 {
	l.fab.Settle()
	out := make([]uint8, len(l.ffs))
	for i, ff := range l.ffs {
		out[i] = l.fab.ff[ff.ord]
	}
	return out
}

// OutputPin resolves a placement's named output through the live fabric.
func (l *Live) OutputPin(p *Placement, name string) (uint8, error) {
	pin, ok := p.OutputPin[name]
	if !ok {
		return 0, fmt.Errorf("fabric: no output pin %q in placement", name)
	}
	return l.Pin(pin)
}

// InputPin drives a placement's named input through the live fabric.
func (l *Live) InputPin(p *Placement, name string, v uint8) error {
	pin, ok := p.InputPin[name]
	if !ok {
		return fmt.Errorf("fabric: no input pin %q in placement", name)
	}
	return l.SetPin(pin, v)
}

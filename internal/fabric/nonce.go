package fabric

import (
	"fmt"

	"sacha/internal/device"
)

// NonceBits is the width of the placed nonce register (paper §6.1: 64
// bits): the width every golden build places and every nonce template,
// patch and nonce-free digest assumes.
const NonceBits = 64

// NonceBitRef locates one bit of the placed nonce register inside the
// full-device frame array: the FF init bit that carries the nonce value
// through configuration, and the FF capture bit where readback exposes
// the held register state in CAPTURE mode. Both positions are fixed by
// the geometry alone — the placer assigns nonce-register flip-flops
// deterministically, and nothing else about the nonce column (used
// flags, routing selectors, IOB entries) depends on the nonce value.
type NonceBitRef struct {
	InitFrame, InitWord int
	InitMask            uint32
	CapFrame, CapWord   int
	CapMask             uint32
}

// NonceTemplate computes, for each bit of an nBits-wide nonce register
// placed into NonceRegion(geo), the frame/word/mask of its init and
// capture bits. The template mirrors the placer's deterministic slot
// assignment (FF i goes to CLB i/FFSlotsPerCLB, slot i%FFSlotsPerCLB of
// the region's single CLB column), so it is valid for any golden image
// whose nonce partition holds netlist.NonceRegister(nBits, ·) as its
// first placed design — the layout every core.System golden build uses.
func NonceTemplate(geo *device.Geometry, nBits int) ([]NonceBitRef, error) {
	if geo == nil {
		return nil, fmt.Errorf("fabric: nonce template without a geometry")
	}
	if nBits < 1 || nBits > 64 {
		return nil, fmt.Errorf("fabric: nonce width %d out of range [1,64]", nBits)
	}
	region := NonceRegion(geo)
	rc := region.CLBCols[0]
	base, frames, err := geo.ColumnBase(rc[0], device.ColCLB, rc[1])
	if err != nil {
		return nil, err
	}
	if cap := geo.SitesPerColumn(device.ColCLB) * FFSlotsPerCLB; nBits > cap {
		return nil, fmt.Errorf("fabric: nonce width %d exceeds the %d FF slots of the nonce column", nBits, cap)
	}
	colBits := frames * device.FrameBits
	refs := make([]NonceBitRef, nBits)
	for i := range refs {
		slotBase := (i/FFSlotsPerCLB)*CLBBits + ffBase + (i%FFSlotsPerCLB)*ffSlotBits
		initOff := slotBase + ffInitOff
		capOff := slotBase + ffCaptureOff
		if capOff >= colBits {
			return nil, fmt.Errorf("fabric: nonce bit %d falls outside the nonce column", i)
		}
		refs[i] = NonceBitRef{
			InitFrame: base + initOff/device.FrameBits,
			InitWord:  (initOff % device.FrameBits) / 32,
			InitMask:  1 << (uint(initOff%device.FrameBits) % 32),
			CapFrame:  base + capOff/device.FrameBits,
			CapWord:   (capOff % device.FrameBits) / 32,
			CapMask:   1 << (uint(capOff%device.FrameBits) % 32),
		}
	}
	return refs, nil
}

// NonceColumnFrames returns the linear frame indices of the nonce
// column — the frames a nonce-only partial reconfiguration rewrites.
func NonceColumnFrames(geo *device.Geometry) ([]int, error) {
	region := NonceRegion(geo)
	rc := region.CLBCols[0]
	base, n, err := geo.ColumnBase(rc[0], device.ColCLB, rc[1])
	if err != nil {
		return nil, err
	}
	out := make([]int, n)
	for i := range out {
		out[i] = base + i
	}
	return out, nil
}

// ReadNonce recovers the nonce value encoded in an image's nonce
// register init bits, per the template.
func ReadNonce(im *Image, refs []NonceBitRef) (uint64, error) {
	var nonce uint64
	for i, ref := range refs {
		if ref.InitFrame < 0 || ref.InitFrame >= im.NumFrames() {
			return 0, fmt.Errorf("fabric: nonce bit %d frame %d out of range", i, ref.InitFrame)
		}
		if im.Frame(ref.InitFrame)[ref.InitWord]&ref.InitMask != 0 {
			nonce |= 1 << uint(i)
		}
	}
	return nonce, nil
}

// WriteNonce sets an image's nonce register init bits to nonce, per the
// template. It is the image-level counterpart of a plan-level WithNonce
// patch: rewriting exactly these bits turns the golden image for one
// nonce into the golden image for another.
func WriteNonce(im *Image, refs []NonceBitRef, nonce uint64) error {
	for i, ref := range refs {
		if ref.InitFrame < 0 || ref.InitFrame >= im.NumFrames() {
			return fmt.Errorf("fabric: nonce bit %d frame %d out of range", i, ref.InitFrame)
		}
		w := &im.Frame(ref.InitFrame)[ref.InitWord]
		if nonce>>uint(i)&1 == 1 {
			*w |= ref.InitMask
		} else {
			*w &^= ref.InitMask
		}
	}
	return nil
}

// NonceFreeDigest hashes the image exactly like Image.Digest but with
// the nonce register's init and capture bits zeroed, so two golden
// images that differ only in the placed nonce value digest identically.
// It is the cache-key primitive behind nonce-patchable plan sharing.
func NonceFreeDigest(im *Image, nBits int) ([32]byte, error) {
	refs, err := NonceTemplate(im.Geo, nBits)
	if err != nil {
		return [32]byte{}, err
	}
	clear := make(map[int][]uint32)
	for i, ref := range refs {
		if ref.InitFrame >= im.NumFrames() || ref.CapFrame >= im.NumFrames() {
			return [32]byte{}, fmt.Errorf("fabric: nonce bit %d outside the image", i)
		}
		for _, fw := range [][3]uint32{
			{uint32(ref.InitFrame), uint32(ref.InitWord), ref.InitMask},
			{uint32(ref.CapFrame), uint32(ref.CapWord), ref.CapMask},
		} {
			f := int(fw[0])
			if clear[f] == nil {
				clear[f] = make([]uint32, device.FrameWords)
			}
			clear[f][fw[1]] |= fw[2]
		}
	}
	return im.digestWith(func(idx int, words []uint32) []uint32 {
		m, ok := clear[idx]
		if !ok {
			return words
		}
		out := make([]uint32, len(words))
		for i, w := range words {
			out[i] = w &^ m[i]
		}
		return out
	}), nil
}

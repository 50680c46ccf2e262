// Package fabric models the configurable fabric of the SACHa FPGA.
//
// The configuration memory is an array of frames (device.FrameWords words
// each). Frames belonging to CLB columns carry a *semantic* bit layout:
// LUT truth tables, routing selectors and flip-flop configuration are
// decoded from the bits and functionally evaluated, so that tampering with
// the configuration genuinely changes behaviour. BRAM and CFG columns
// carry content and IOB routing respectively.
//
// Layout of one CLB within its column's flat bit vector (CLBBits bits per
// CLB, allocated sequentially along the column):
//
//	8 LUT slots × 192 bits: used(1) | truth(64) | 6 × selector(20)
//	8 FF  slots ×  24 bits: used(1) | init(1) | capture(1) | selector(20)
//
// A selector value of 0 means unconnected (reads 0), 1 means constant one,
// and n+2 addresses net n. Net numbering: LUT outputs first, then FF
// outputs, then IOB input pads (see netBase). The capture bit is where
// configuration readback exposes the live flip-flop state — the reason the
// paper's verifier must apply the Msk before comparing bitstreams.
//
// IOB pins live in the CFG column of each row: 256 pins/row × 32 bits:
// used(1) | dir(1, 1=output) | selector(20).
package fabric

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"sacha/internal/cmac"
	"sacha/internal/device"
)

// Per-CLB slot layout constants.
const (
	LUTSlotsPerCLB = 8
	FFSlotsPerCLB  = 8
	CLBBits        = 3628 // bit budget per CLB within its column vector

	lutSlotBits = 192
	lutUsedOff  = 0
	lutTruthOff = 1
	lutSelOff   = 65 // six selectors follow

	ffBase       = LUTSlotsPerCLB * lutSlotBits // 1536
	ffSlotBits   = 24
	ffUsedOff    = 0
	ffInitOff    = 1
	ffCaptureOff = 2
	ffSelOff     = 3

	selWidth       = 20
	SelUnconnected = 0
	SelConst1      = 1
	selNetBase     = 2
)

// IOB table layout within a CFG column.
const (
	IOBPinsPerRow = 256
	iobEntryBits  = 32
	iobUsedOff    = 0
	iobDirOff     = 1 // 1 = output pad
	iobSelOff     = 2
)

// Image is a full-device configuration image: the golden bitstream on the
// verifier side, or the live configuration memory inside the Fabric.
type Image struct {
	Geo    *device.Geometry
	frames [][]uint32
}

// NewImage returns an all-zero configuration image for the geometry.
func NewImage(geo *device.Geometry) *Image {
	n := geo.NumFrames()
	backing := make([]uint32, n*device.FrameWords)
	frames := make([][]uint32, n)
	for i := range frames {
		frames[i] = backing[i*device.FrameWords : (i+1)*device.FrameWords]
	}
	return &Image{Geo: geo, frames: frames}
}

// Clone deep-copies the image.
func (im *Image) Clone() *Image {
	c := NewImage(im.Geo)
	for i, f := range im.frames {
		copy(c.frames[i], f)
	}
	return c
}

// NumFrames returns the frame count.
func (im *Image) NumFrames() int { return len(im.frames) }

// Frame returns frame i's words. The slice aliases the image.
func (im *Image) Frame(i int) []uint32 {
	if i < 0 || i >= len(im.frames) {
		panic(fmt.Sprintf("fabric: frame %d out of range", i))
	}
	return im.frames[i]
}

// SetFrame copies 81 words into frame i.
func (im *Image) SetFrame(i int, words []uint32) {
	if len(words) != device.FrameWords {
		panic(fmt.Sprintf("fabric: frame data has %d words, want %d", len(words), device.FrameWords))
	}
	copy(im.Frame(i), words)
}

// Digest returns a SHA-256 over the image's geometry name and every
// frame word (big-endian, frames in order). Two images with equal
// digests configure identically; the attestation plan cache keys on it.
func (im *Image) Digest() [32]byte {
	return im.digestWith(nil)
}

// digestWith hashes the image, passing every frame through the optional
// normalisation first (NonceFreeDigest zeroes nonce bits this way).
func (im *Image) digestWith(norm func(idx int, words []uint32) []uint32) [32]byte {
	h := sha256.New()
	h.Write([]byte(im.Geo.Name))
	buf := make([]byte, device.FrameWords*4)
	for idx, f := range im.frames {
		if norm != nil {
			f = norm(idx, f)
		}
		for i, w := range f {
			binary.BigEndian.PutUint32(buf[i*4:], w)
		}
		h.Write(buf)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// Equal reports whether two images hold identical bits.
func (im *Image) Equal(other *Image) bool {
	if im.Geo.NumFrames() != other.Geo.NumFrames() {
		return false
	}
	for i, f := range im.frames {
		for w, v := range f {
			if other.frames[i][w] != v {
				return false
			}
		}
	}
	return true
}

// colView addresses the flat bit vector of one column.
type colView struct {
	im        *Image
	baseFrame int
	bits      int
}

// columnView returns a bit-addressable view of a column.
func (im *Image) columnView(row int, kind device.ColumnKind, ordinal int) (colView, error) {
	base, frames, err := im.Geo.ColumnBase(row, kind, ordinal)
	if err != nil {
		return colView{}, err
	}
	return colView{im: im, baseFrame: base, bits: frames * device.FrameBits}, nil
}

func (cv colView) bit(i int) uint32 {
	if i < 0 || i >= cv.bits {
		panic(fmt.Sprintf("fabric: column bit %d out of range [0,%d)", i, cv.bits))
	}
	frame := cv.im.frames[cv.baseFrame+i/device.FrameBits]
	off := i % device.FrameBits
	return frame[off/32] >> (uint(off) % 32) & 1
}

func (cv colView) setBit(i int, v uint32) {
	if i < 0 || i >= cv.bits {
		panic(fmt.Sprintf("fabric: column bit %d out of range [0,%d)", i, cv.bits))
	}
	frame := cv.im.frames[cv.baseFrame+i/device.FrameBits]
	off := i % device.FrameBits
	w, s := off/32, uint(off)%32
	frame[w] = frame[w]&^(1<<s) | v&1<<s
}

func (cv colView) uint(off, width int) uint64 {
	var out uint64
	for i := 0; i < width; i++ {
		out |= uint64(cv.bit(off+i)) << uint(i)
	}
	return out
}

func (cv colView) setUint(off, width int, val uint64) {
	for i := 0; i < width; i++ {
		cv.setBit(off+i, uint32(val>>uint(i))&1)
	}
}

// Net numbering helpers. Net IDs are global across the device:
//
//	[0, nSites*8)            LUT output nets
//	[nSites*8, 2*nSites*8)   FF output nets
//	[2*nSites*8, +nPins)     IOB input pad nets
func netCounts(geo *device.Geometry) (nSites, lutNets, pinBase int) {
	nSites = geo.CLBs()
	lutNets = nSites * LUTSlotsPerCLB
	pinBase = 2 * lutNets
	return
}

// SiteIndex computes the global CLB site index for (row, clbCol, clbInCol).
func SiteIndex(geo *device.Geometry, row, clbCol, clbInCol int) int {
	cols := geo.ColumnsOf(device.ColCLB)
	sites := geo.SitesPerColumn(device.ColCLB)
	return (row*cols+clbCol)*sites + clbInCol
}

// LUTNet returns the net ID of LUT slot `slot` at the given site.
func LUTNet(geo *device.Geometry, site, slot int) int {
	return site*LUTSlotsPerCLB + slot
}

// FFNet returns the net ID of FF slot `slot` at the given site.
func FFNet(geo *device.Geometry, site, slot int) int {
	_, lutNets, _ := netCounts(geo)
	return lutNets + site*FFSlotsPerCLB + slot
}

// PinNet returns the net ID of IOB input pad `pin`.
func PinNet(geo *device.Geometry, pin int) int {
	_, _, pinBase := netCounts(geo)
	return pinBase + pin
}

// NumPins returns the IOB pin count of the device.
func NumPins(geo *device.Geometry) int { return geo.Rows * IOBPinsPerRow }

// FillStatic fills the given frames of the image with a deterministic
// pseudo-random pattern derived from buildID, modelling the synthesised
// static-partition bitstream (ETH core, FSMs, ICAP controller, AES-CMAC —
// whose *behaviour* is modelled natively by internal/prover). The pattern
// keeps the MAC over StatMem meaningful: any tampering with static frames
// changes the checksum.
func FillStatic(im *Image, frames []int, buildID uint64) {
	mac, err := cmac.New([]byte("SACHa-static-img"))
	if err != nil {
		panic(err)
	}
	var msg [16]byte
	for _, fi := range frames {
		f := im.Frame(fi)
		for w := 0; w < device.FrameWords; w += 4 {
			binary.BigEndian.PutUint64(msg[0:8], buildID)
			binary.BigEndian.PutUint32(msg[8:12], uint32(fi))
			binary.BigEndian.PutUint32(msg[12:16], uint32(w))
			mac.Reset()
			mac.Update(msg[:])
			tag := mac.Sum()
			for k := 0; k < 4 && w+k < device.FrameWords; k++ {
				f[w+k] = binary.BigEndian.Uint32(tag[4*k : 4*k+4])
			}
		}
	}
}

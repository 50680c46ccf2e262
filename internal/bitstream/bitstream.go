// Package bitstream provides the on-disk container for configuration
// bitstreams, golden references and Msk mask files.
//
// A Partial is an ordered list of (frame index, frame words) records —
// the unit the verifier sends frame-by-frame during the SACHa protocol.
// The format is a simple length-prefixed binary layout with a trailing
// CRC-32 so corrupted files are rejected.
package bitstream

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"sacha/internal/device"
	"sacha/internal/fabric"
)

// Magic identifies SACHa bitstream files.
const Magic = "SBIT"

// FormatVersion is the current container version.
const FormatVersion = 1

// FrameRecord is one addressed configuration frame.
type FrameRecord struct {
	Index int
	Words []uint32
}

// Partial is an ordered collection of configuration frames for one device.
type Partial struct {
	Device string
	Frames []FrameRecord
}

// FromImage extracts the given frames (in the given order) from an image.
func FromImage(im *fabric.Image, frames []int) *Partial {
	p := &Partial{Device: im.Geo.Name}
	for _, idx := range frames {
		words := make([]uint32, device.FrameWords)
		copy(words, im.Frame(idx))
		p.Frames = append(p.Frames, FrameRecord{Index: idx, Words: words})
	}
	return p
}

// FullImage extracts every frame of the image in linear order.
func FullImage(im *fabric.Image) *Partial {
	frames := make([]int, im.NumFrames())
	for i := range frames {
		frames[i] = i
	}
	return FromImage(im, frames)
}

// ApplyTo writes the partial's frames into an image.
func (p *Partial) ApplyTo(im *fabric.Image) error {
	if im.Geo.Name != p.Device {
		return fmt.Errorf("bitstream: built for %q, image is %q", p.Device, im.Geo.Name)
	}
	for _, fr := range p.Frames {
		if fr.Index < 0 || fr.Index >= im.NumFrames() {
			return fmt.Errorf("bitstream: frame %d out of range", fr.Index)
		}
		im.SetFrame(fr.Index, fr.Words)
	}
	return nil
}

// SizeBytes returns the payload size: frames × 324 bytes, the quantity the
// paper's bounded-memory argument relies on.
func (p *Partial) SizeBytes() int { return len(p.Frames) * device.FrameBytes }

// WriteTo serialises the partial. It implements io.WriterTo.
func (p *Partial) WriteTo(w io.Writer) (int64, error) {
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(w, crc)
	var n int64
	put := func(data any) error {
		if err := binary.Write(mw, binary.BigEndian, data); err != nil {
			return err
		}
		n += int64(binary.Size(data))
		return nil
	}
	if _, err := mw.Write([]byte(Magic)); err != nil {
		return n, err
	}
	n += 4
	if err := put(uint16(FormatVersion)); err != nil {
		return n, err
	}
	name := []byte(p.Device)
	if err := put(uint16(len(name))); err != nil {
		return n, err
	}
	if _, err := mw.Write(name); err != nil {
		return n, err
	}
	n += int64(len(name))
	if err := put(uint32(len(p.Frames))); err != nil {
		return n, err
	}
	for _, fr := range p.Frames {
		if len(fr.Words) != device.FrameWords {
			return n, fmt.Errorf("bitstream: frame %d has %d words", fr.Index, len(fr.Words))
		}
		if err := put(uint32(fr.Index)); err != nil {
			return n, err
		}
		if err := put(fr.Words); err != nil {
			return n, err
		}
	}
	// CRC over everything written so far, appended raw.
	if err := binary.Write(w, binary.BigEndian, crc.Sum32()); err != nil {
		return n, err
	}
	return n + 4, nil
}

// Read deserialises a partial written by WriteTo.
func Read(r io.Reader) (*Partial, error) {
	crc := crc32.NewIEEE()
	tr := io.TeeReader(r, crc)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(tr, magic); err != nil {
		return nil, fmt.Errorf("bitstream: %w", err)
	}
	if string(magic) != Magic {
		return nil, fmt.Errorf("bitstream: bad magic %q", magic)
	}
	var version uint16
	if err := binary.Read(tr, binary.BigEndian, &version); err != nil {
		return nil, err
	}
	if version != FormatVersion {
		return nil, fmt.Errorf("bitstream: unsupported version %d", version)
	}
	var nameLen uint16
	if err := binary.Read(tr, binary.BigEndian, &nameLen); err != nil {
		return nil, err
	}
	if nameLen > 256 {
		return nil, fmt.Errorf("bitstream: device name too long (%d)", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(tr, name); err != nil {
		return nil, err
	}
	var count uint32
	if err := binary.Read(tr, binary.BigEndian, &count); err != nil {
		return nil, err
	}
	if count > 1<<24 {
		return nil, fmt.Errorf("bitstream: implausible frame count %d", count)
	}
	// The frame slice grows by append as records actually arrive: count
	// is an unchecked header field, so preallocating from it would let a
	// few header bytes claim up to 1<<24 records of memory.
	p := &Partial{Device: string(name)}
	rec := make([]byte, 4+device.FrameBytes)
	for i := uint32(0); i < count; i++ {
		if _, err := io.ReadFull(tr, rec); err != nil {
			return nil, fmt.Errorf("bitstream: frame record %d: %w", i, err)
		}
		words := make([]uint32, device.FrameWords)
		for w := range words {
			words[w] = binary.BigEndian.Uint32(rec[4+4*w:])
		}
		p.Frames = append(p.Frames, FrameRecord{Index: int(binary.BigEndian.Uint32(rec)), Words: words})
	}
	sum := crc.Sum32()
	var stored uint32
	if err := binary.Read(r, binary.BigEndian, &stored); err != nil {
		return nil, err
	}
	if stored != sum {
		return nil, fmt.Errorf("bitstream: CRC mismatch (file %#08x, computed %#08x)", stored, sum)
	}
	return p, nil
}

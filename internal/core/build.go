package core

import (
	"fmt"

	"sacha/internal/bitstream"
	"sacha/internal/device"
	"sacha/internal/fabric"
	"sacha/internal/netlist"
)

// BuildBootMem synthesises the static-partition boot flash content for a
// geometry and build ID — what the device is provisioned with before
// deployment. The prover and verifier tools share this so a TCP verifier
// can reconstruct the golden static content without access to the device.
func BuildBootMem(geo *device.Geometry, buildID uint64) *bitstream.Partial {
	statFrames := fabric.StatRegion(geo).Frames()
	im := fabric.NewImage(geo)
	fabric.FillStatic(im, statFrames, buildID)
	return bitstream.FromImage(im, statFrames)
}

// BuildGolden composes the full golden image for an intended application
// and nonce: synthesised static content, the placed application, and the
// placed nonce register. It returns the image and the dynamic frames in
// transmission order (application frames, then nonce frames).
func BuildGolden(geo *device.Geometry, app *netlist.Design, buildID, nonce uint64) (*fabric.Image, []int, error) {
	im := fabric.NewImage(geo)
	fabric.FillStatic(im, fabric.StatRegion(geo).Frames(), buildID)
	if _, err := fabric.PlaceDesign(im, fabric.AppRegion(geo), app); err != nil {
		return nil, nil, fmt.Errorf("core: placing application: %w", err)
	}
	if _, err := fabric.PlaceDesign(im, fabric.NonceRegion(geo), netlist.NonceRegister(fabric.NonceBits, nonce)); err != nil {
		return nil, nil, fmt.Errorf("core: placing nonce: %w", err)
	}

	nonceFrames, err := fabric.NonceColumnFrames(geo)
	if err != nil {
		return nil, nil, err
	}
	nonceCol := map[int]bool{}
	for _, idx := range nonceFrames {
		nonceCol[idx] = true
	}
	var dyn []int
	for _, idx := range fabric.DynRegion(geo).Frames() {
		if !nonceCol[idx] {
			dyn = append(dyn, idx)
		}
	}
	return im, append(dyn, nonceFrames...), nil
}

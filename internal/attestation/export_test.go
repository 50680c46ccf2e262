package attestation

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"sacha/internal/device"
	"sacha/internal/fabric"
	"sacha/internal/netlist"
)

// ExpectedFrame exposes p's predicted readback of frame idx to the
// external tests, which build their golden images through core (an
// importer of this package).
func ExpectedFrame(p *Plan, idx int) []uint32 {
	b := p.expectedFrame(idx)
	words := make([]uint32, len(b)/4)
	for i := range words {
		words[i] = binary.BigEndian.Uint32(b[4*i:])
	}
	return words
}

// RandomGolden returns a golden image of random words everywhere but the
// nonce column, which holds a nonce register at a random nonce, placed
// as Spec.Golden requires.
func RandomGolden(tb testing.TB, geo *device.Geometry, rng *rand.Rand) *fabric.Image {
	tb.Helper()
	golden := fabric.NewImage(geo)
	nonceCol, err := fabric.NonceColumnFrames(geo)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < golden.NumFrames(); i++ {
		if slices.Contains(nonceCol, i) {
			continue
		}
		for w := range golden.Frame(i) {
			golden.Frame(i)[w] = rng.Uint32()
		}
	}
	if _, err := fabric.PlaceDesign(golden, fabric.NonceRegion(geo), netlist.NonceRegister(fabric.NonceBits, rng.Uint64())); err != nil {
		tb.Fatal(err)
	}
	return golden
}

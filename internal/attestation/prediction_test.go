package attestation_test

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sacha/internal/attestation"
	"sacha/internal/core"
	"sacha/internal/device"
	"sacha/internal/fabric"
	"sacha/internal/netlist"
)

// TestDifferentialPredictionEqualsGoldenUnderMask pins the verdict's
// predicate against the masked-golden formula it replaces: a read-back
// frame matches when (got^want)&Msk == 0, with want the predicted
// readback, and that equals got&Msk == golden&Msk only if the prediction
// and the golden image agree in every bit Msk compares. Readback differs
// from configuration memory in capture bits alone, and Msk clears every
// capture position; this checks it frame by frame, for core golden
// builds and for an image of random static and application frames.
func TestDifferentialPredictionEqualsGoldenUnderMask(t *testing.T) {
	type golden struct {
		name string
		geo  *device.Geometry
		im   *fabric.Image
	}
	var cases []golden
	for _, geo := range []*device.Geometry{device.TinyLX(), device.SmallLX()} {
		im, _, err := core.BuildGolden(geo, netlist.Blinker(8), 0xD00D, 0x5EED)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, golden{geo.Name, geo, im})
	}
	tiny := device.TinyLX()
	cases = append(cases, golden{"TinyLX/random", tiny, attestation.RandomGolden(t, tiny, rand.New(rand.NewSource(27)))})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := attestation.NewPlan(attestation.Spec{Geo: tc.geo, Golden: tc.im,
				DynFrames: fabric.DynRegion(tc.geo).Frames()})
			if err != nil {
				t.Fatal(err)
			}
			mask := fabric.GenerateMask(tc.geo)
			for i := 0; i < tc.geo.NumFrames(); i++ {
				got := fabric.ApplyMask(attestation.ExpectedFrame(p, i), mask.Frame(i))
				if want := fabric.ApplyMask(tc.im.Frame(i), mask.Frame(i)); !slices.Equal(got, want) {
					t.Fatalf("frame %d: predicted readback under Msk differs from the masked golden frame", i)
				}
			}
		})
	}
}

// TestPlainPlanRejectsUnheldNonceColumn: the nonce column must hold the
// held nonce register in every mode, because a nonce step predicts each
// register bit's capture bit from its init bit. Here a 63-bit register
// leaves the template's last slot without a flip-flop while the golden
// image still sets that slot's init bit, so ReadNonce reads bit 63 as 1
// but a device reads back no held state there. The plain plan rejects the
// image, as a CAPTURE plan does, instead of comparing against a nonce
// step that a cold build at another nonce would not reproduce.
func TestPlainPlanRejectsUnheldNonceColumn(t *testing.T) {
	geo := device.TinyLX()
	const nonce = 0x5EED
	im, dyn, err := core.BuildGolden(geo, netlist.Blinker(8), 0xD00D, nonce)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := attestation.NewPlan(attestation.Spec{Geo: geo, Golden: im, DynFrames: dyn}); err != nil {
		t.Fatalf("core golden build rejected: %v", err)
	}
	nonceCol, err := fabric.NonceColumnFrames(geo)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range nonceCol {
		clear(im.Frame(f))
	}
	if _, err := fabric.PlaceDesign(im, fabric.NonceRegion(geo), netlist.NonceRegister(fabric.NonceBits-1, nonce)); err != nil {
		t.Fatal(err)
	}
	refs, err := fabric.NonceTemplate(geo, fabric.NonceBits)
	if err != nil {
		t.Fatal(err)
	}
	last := refs[fabric.NonceBits-1]
	im.Frame(last.InitFrame)[last.InitWord] |= last.InitMask
	_, err = attestation.NewPlan(attestation.Spec{Geo: geo, Golden: im, DynFrames: dyn})
	if err == nil || !strings.Contains(err.Error(), "not a held nonce register") {
		t.Fatalf("plain plan over a nonce column without a held register: err %v, want a held-register rejection", err)
	}
}

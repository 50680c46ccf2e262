package verifier

import (
	"strings"
	"testing"

	"sacha/internal/attestation"
	"sacha/internal/bitstream"
	"sacha/internal/channel"
	"sacha/internal/device"
	"sacha/internal/fabric"
	"sacha/internal/netlist"
	"sacha/internal/obs/span"
	"sacha/internal/prover"
	"sacha/internal/sim"
)

// realDevice provisions a prover and the matching golden image without
// going through internal/core (which depends on this package's caller
// side only, but the test keeps the layers independent).
func realDevice(t *testing.T) (*prover.Device, *fabric.Image, []int, [16]byte) {
	t.Helper()
	geo := device.SmallLX()
	key := [16]byte{9, 8, 7}

	statFrames := fabric.StatRegion(geo).Frames()
	golden := fabric.NewImage(geo)
	fabric.FillStatic(golden, statFrames, 4)
	boot := bitstream.FromImage(golden, statFrames)
	if _, err := fabric.PlaceDesign(golden, fabric.AppRegion(geo), netlist.Counter(6)); err != nil {
		t.Fatal(err)
	}
	if _, err := fabric.PlaceDesign(golden, fabric.NonceRegion(geo), netlist.NonceRegister(64, 0xABCD)); err != nil {
		t.Fatal(err)
	}
	dev, err := prover.New(prover.Config{Geo: geo, BootMem: boot, Key: prover.RegisterKey(key)})
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.PowerOn(); err != nil {
		t.Fatal(err)
	}
	return dev, golden, fabric.DynRegion(geo).Frames(), key
}

func TestAttestRealDeviceEndToEnd(t *testing.T) {
	dev, golden, dyn, key := realDevice(t)
	vrfTime := sim.NewTimeline()
	vrfEP := channel.NewInline(dev.Handler(), channel.SimConfig{})

	sp := span.NewCollector(1).StartTrace(1, "attestation")
	rep, err := attest(vrfEP,
		attestation.Spec{Geo: dev.Geo, Golden: golden, DynFrames: dyn, Offset: 99, ConfigBatch: 2},
		attestation.RunOpts{Key: key, Span: sp, Timeline: vrfTime})
	vrfEP.Close()
	if err != nil {
		t.Fatal(err)
	}
	if serr := vrfEP.Err(); serr != nil {
		t.Fatal(serr)
	}
	if !rep.Accepted || !rep.MACOK || !rep.ConfigOK {
		t.Fatalf("honest device rejected: %+v", rep)
	}
	if rep.FramesConfigured != len(dyn) || rep.FramesRead != dev.Geo.NumFrames() {
		t.Fatalf("frame counts: %d configured, %d read", rep.FramesConfigured, rep.FramesRead)
	}
	var sb strings.Builder
	if err := attestation.WriteMilestones(&sb, sp.Events()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "MAC_checksum") {
		t.Error("trace missing")
	}
	if got := sp.Kinds()[attestation.StepReadback].Count; got != dev.Geo.NumFrames() {
		t.Errorf("event log readbacks: %d", got)
	}
	// Verifier-side software time accrued for every command.
	if vrfTime.Tag("vrf-sw") == 0 {
		t.Error("verifier timeline not charged")
	}
}

func TestAttestRealDeviceCapture(t *testing.T) {
	dev, golden, dyn, key := realDevice(t)
	vrfEP := channel.NewInline(dev.Handler(), channel.SimConfig{})
	defer vrfEP.Close()
	rep, err := attest(vrfEP,
		attestation.Spec{Geo: dev.Geo, Golden: golden, DynFrames: dyn, AppSteps: 9},
		attestation.RunOpts{Key: key})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Accepted {
		t.Fatalf("CAPTURE run rejected: %+v", rep)
	}
}

func TestAttestEmptyDynFramesRejected(t *testing.T) {
	geo := device.SmallLX()
	a := channel.NewInline(func([]byte) ([][]byte, error) { return nil, nil }, channel.SimConfig{})
	defer a.Close()
	if _, err := attest(a, attestation.Spec{Geo: geo, Golden: fabric.NewImage(geo)}, attestation.RunOpts{}); err == nil {
		t.Fatal("empty dynamic frame list accepted")
	}
}

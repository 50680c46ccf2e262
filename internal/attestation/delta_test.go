// Delta-mode and compressed-transport tests: the delta configuration
// path must be observationally identical to the full overwrite — same
// verdict, same H_Vrf, bit for bit — and must fall back to the full
// overwrite (never silently skip) whenever it cannot prove the device
// already holds the golden configuration.
package attestation_test

import (
	"testing"

	"sacha/internal/attestation"
	"sacha/internal/channel"
	"sacha/internal/core"
	"sacha/internal/device"
	"sacha/internal/netlist"
	"sacha/internal/protocol"
	"sacha/internal/prover"
)

// persistentProver is a device that survives across attestation
// sessions, the way a fleet member does between sweeps: each connect
// opens a fresh transport session against the same fabric state.
type persistentProver struct {
	dev *prover.Device
	// vrf and served are the current session's verifier endpoint and a
	// channel closed once its Serve returns. A device serves one session
	// at a time, so connect ends the previous session before it starts
	// the next.
	vrf    channel.Endpoint
	served chan struct{}
}

func newPersistentProver(t testing.TB, geo *device.Geometry) *persistentProver {
	t.Helper()
	dev, err := prover.New(prover.Config{
		Geo:     geo,
		BootMem: core.BuildBootMem(geo, 0xD00D),
		Key:     runKey,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.PowerOn(); err != nil {
		t.Fatal(err)
	}
	return &persistentProver{dev: dev}
}

func (p *persistentProver) connect(t testing.TB) channel.Endpoint {
	t.Helper()
	if p.vrf != nil {
		p.vrf.Close()
		<-p.served
	}
	vrfEP, prvEP := channel.SimPair(channel.SimConfig{})
	served := make(chan struct{})
	go func() {
		defer close(served)
		p.dev.Serve(prvEP)
	}()
	p.vrf, p.served = vrfEP, served
	t.Cleanup(func() { vrfEP.Close() })
	return vrfEP
}

// buildDeltaPlans builds a delta+compress plan and a baseline plan from
// the same golden image, returning the dynamic frame list too.
func buildDeltaPlans(t testing.TB) (deltaPlan, basePlan *attestation.Plan, dyn []int) {
	t.Helper()
	geo := device.TinyLX()
	golden, dyn, err := core.BuildGolden(geo, netlist.Blinker(8), 0xD00D, 0xCAFEBABE)
	if err != nil {
		t.Fatal(err)
	}
	spec := attestation.Spec{Geo: geo, Golden: golden, DynFrames: dyn}
	if basePlan, err = attestation.NewPlan(spec); err != nil {
		t.Fatal(err)
	}
	spec.Delta, spec.Compress = true, true
	if deltaPlan, err = attestation.NewPlan(spec); err != nil {
		t.Fatal(err)
	}
	return deltaPlan, basePlan, dyn
}

func mustRun(t testing.TB, plan *attestation.Plan, ep channel.Endpoint, opts attestation.RunOpts) *attestation.Report {
	t.Helper()
	opts.Key = runKey
	rep, err := plan.Run(ep, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestDeltaRunMatchesFullOverwrite is the core equivalence: on a warm
// healthy device the delta path rewrites only the nonce frames yet
// produces the exact verdict and H_Vrf of a full overwrite on an
// identically prepared twin.
func TestDeltaRunMatchesFullOverwrite(t *testing.T) {
	deltaPlan, basePlan, _ := buildDeltaPlans(t)
	devA := newPersistentProver(t, deltaPlan.Geo())
	devB := newPersistentProver(t, deltaPlan.Geo())

	// Warm both twins with an identical full-overwrite attestation.
	warmA := mustRun(t, basePlan, devA.connect(t), attestation.RunOpts{})
	warmB := mustRun(t, basePlan, devB.connect(t), attestation.RunOpts{})
	if !warmA.Accepted || !warmB.Accepted {
		t.Fatalf("warm-up rejected: A=%+v B=%+v", warmA, warmB)
	}

	// Second round: delta on A, full overwrite on B.
	repA := mustRun(t, deltaPlan, devA.connect(t), attestation.RunOpts{DeltaWarm: true})
	repB := mustRun(t, basePlan, devB.connect(t), attestation.RunOpts{})

	if !repA.Accepted || !repB.Accepted {
		t.Fatalf("second round rejected: A=%+v B=%+v", repA, repB)
	}
	if repA.HVrf != repB.HVrf {
		t.Fatalf("delta H_Vrf %x differs from full-overwrite H_Vrf %x", repA.HVrf, repB.HVrf)
	}
	if !repA.Delta.Applied || repA.Delta.Fallback != "" {
		t.Fatalf("delta not applied: %+v", repA.Delta)
	}
	if !repA.Compressed {
		t.Fatal("compression not negotiated")
	}
	if repA.Delta.FramesRewritten == 0 || repA.Delta.FramesRewritten >= repB.FramesConfigured {
		t.Fatalf("delta rewrote %d of %d frames — expected a small non-zero rewrite set",
			repA.Delta.FramesRewritten, repB.FramesConfigured)
	}
	if repA.Delta.FramesScanned != repB.FramesConfigured {
		t.Fatalf("delta scanned %d frames, dynamic partition has %d", repA.Delta.FramesScanned, repB.FramesConfigured)
	}
	if got := repA.Delta.FramesRewritten + repA.Delta.FramesSkipped; got != repB.FramesConfigured {
		t.Fatalf("rewritten %d + skipped %d != %d dynamic frames",
			repA.Delta.FramesRewritten, repA.Delta.FramesSkipped, repB.FramesConfigured)
	}
	if repA.FramesConfigured != repA.Delta.FramesRewritten {
		t.Fatalf("FramesConfigured %d != FramesRewritten %d", repA.FramesConfigured, repA.Delta.FramesRewritten)
	}
}

// TestDeltaColdFallsBack: without the admissibility assertion the delta
// run must fall back to the full overwrite and still accept.
func TestDeltaColdFallsBack(t *testing.T) {
	deltaPlan, _, dyn := buildDeltaPlans(t)
	dev := newPersistentProver(t, deltaPlan.Geo())
	rep := mustRun(t, deltaPlan, dev.connect(t), attestation.RunOpts{})
	if !rep.Accepted {
		t.Fatalf("cold fallback rejected: %+v", rep)
	}
	if rep.Delta.Applied || rep.Delta.Fallback != "cold" {
		t.Fatalf("cold device: %+v", rep.Delta)
	}
	if rep.FramesConfigured != len(dyn) {
		t.Fatalf("cold fallback configured %d frames, want the full %d-frame overwrite", rep.FramesConfigured, len(dyn))
	}
	if rep.Delta.FramesScanned != 0 || rep.Delta.FramesSkipped != 0 {
		t.Fatalf("cold fallback should skip the scan entirely: %+v", rep.Delta)
	}
}

// TestDeltaDriftFallsBack: a frame outside the nonce set that drifted
// (SEU, stale config, tamper) must force the full overwrite — and the
// overwrite must repair it, so the run still accepts with the drift
// recorded in the report.
func TestDeltaDriftFallsBack(t *testing.T) {
	deltaPlan, basePlan, dyn := buildDeltaPlans(t)
	dev := newPersistentProver(t, deltaPlan.Geo())
	if rep := mustRun(t, basePlan, dev.connect(t), attestation.RunOpts{}); !rep.Accepted {
		t.Fatalf("warm-up rejected: %+v", rep)
	}

	// Flip a configuration bit in a dynamic frame outside the nonce
	// rewrite set: a legitimate nonce-frame difference would be repaired
	// by the delta rewrite itself, so only non-nonce drift forces the
	// fallback.
	nonce := map[int]bool{}
	for _, f := range deltaPlan.DeltaRewriteFrames() {
		nonce[f] = true
	}
	tampered := -1
	for _, f := range dyn {
		if !nonce[f] {
			tampered = f
			break
		}
	}
	if tampered < 0 {
		t.Fatal("no non-nonce dynamic frame on this geometry")
	}
	dev.dev.Fabric.Mem.Frame(tampered)[3] ^= 1 << 7

	rep := mustRun(t, deltaPlan, dev.connect(t), attestation.RunOpts{DeltaWarm: true})
	if rep.Delta.Applied || rep.Delta.Fallback != "mismatch" {
		t.Fatalf("drifted device did not fall back: %+v", rep.Delta)
	}
	found := false
	for _, f := range rep.Delta.Unexpected {
		if f == tampered {
			found = true
		}
	}
	if !found {
		t.Fatalf("drifted frame %d not in Unexpected %v", tampered, rep.Delta.Unexpected)
	}
	if !rep.Accepted {
		t.Fatalf("fallback overwrite did not repair the drift: %+v", rep)
	}
}

// TestDeltaCaptureIncompatible: CAPTURE mode clocks the application
// after configuration; a skipped rewrite skips the flip-flop reset that
// the prediction assumes, so the spec must be rejected at build.
func TestDeltaCaptureIncompatible(t *testing.T) {
	geo := device.TinyLX()
	golden, dyn, err := core.BuildGolden(geo, netlist.Blinker(8), 0xD00D, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = attestation.NewPlan(attestation.Spec{
		Geo: geo, Golden: golden, DynFrames: dyn, Delta: true, AppSteps: 3,
	})
	if err == nil {
		t.Fatal("Delta+CAPTURE spec accepted")
	}
}

// TestCompressedRunMatchesPlain: the compressed wire encodings are pure
// transport — verdict and H_Vrf must be bit-identical to a plain run on
// an identically prepared twin.
func TestCompressedRunMatchesPlain(t *testing.T) {
	geo := device.TinyLX()
	golden, dyn, err := core.BuildGolden(geo, netlist.Blinker(8), 0xD00D, 0xFEED)
	if err != nil {
		t.Fatal(err)
	}
	compPlan, err := attestation.NewPlan(attestation.Spec{Geo: geo, Golden: golden, DynFrames: dyn, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	plainPlan, err := attestation.NewPlan(attestation.Spec{Geo: geo, Golden: golden, DynFrames: dyn})
	if err != nil {
		t.Fatal(err)
	}
	devA := newPersistentProver(t, geo)
	devB := newPersistentProver(t, geo)
	repA := mustRun(t, compPlan, devA.connect(t), attestation.RunOpts{})
	repB := mustRun(t, plainPlan, devB.connect(t), attestation.RunOpts{})
	if !repA.Accepted || !repB.Accepted {
		t.Fatalf("rejected: comp=%+v plain=%+v", repA, repB)
	}
	if repA.HVrf != repB.HVrf {
		t.Fatalf("compressed H_Vrf %x differs from plain %x", repA.HVrf, repB.HVrf)
	}
	if !repA.Compressed || repB.Compressed {
		t.Fatalf("negotiation: comp=%v plain=%v", repA.Compressed, repB.Compressed)
	}
}

// TestPlanCapabilitiesDecideHello: a session speaks exactly the
// capabilities its plan pre-encoded. A Compress+Delta plan opens every
// Run with Hello(CapCompress|CapScan) and negotiates compression; a
// plain plan sends no Hello, so its message count stays the paper's
// configuration packets, readbacks and one checksum.
func TestPlanCapabilitiesDecideHello(t *testing.T) {
	deltaPlan, basePlan, _ := buildDeltaPlans(t)
	// sent records the type and capability field of every command the
	// verifier puts on the wire.
	run := func(plan *attestation.Plan, dev *persistentProver) (*attestation.Report, []*protocol.Message) {
		t.Helper()
		var sent []*protocol.Message
		tap := &channel.Tap{Inner: dev.connect(t), OnSend: func(m []byte) []byte {
			dm, err := protocol.Decode(m)
			if err != nil {
				t.Errorf("verifier sent an undecodable command: %v", err)
			}
			sent = append(sent, dm)
			return m
		}}
		return mustRun(t, plan, tap, attestation.RunOpts{}), sent
	}

	dev := newPersistentProver(t, deltaPlan.Geo())
	for round := 0; round < 2; round++ {
		rep, sent := run(deltaPlan, dev)
		if len(sent) == 0 || sent[0].Type != protocol.MsgHello {
			t.Fatalf("round %d: delta plan's first command is not Hello", round)
		}
		if want := protocol.CapCompress | protocol.CapScan; sent[0].Caps != want {
			t.Fatalf("round %d: Hello caps %#x, want %#x", round, sent[0].Caps, want)
		}
		if !rep.Accepted || !rep.Compressed || !rep.Delta.Enabled {
			t.Fatalf("round %d: accepted=%v compressed=%v delta=%+v", round, rep.Accepted, rep.Compressed, rep.Delta)
		}
	}

	rep, sent := run(basePlan, newPersistentProver(t, basePlan.Geo()))
	for _, m := range sent {
		if m.Type == protocol.MsgHello {
			t.Fatal("plain plan sent a Hello")
		}
	}
	if want := basePlan.ConfigPackets() + basePlan.NumFrames() + 1; len(sent) != want {
		t.Fatalf("plain plan sent %d commands, want %d", len(sent), want)
	}
	if !rep.Accepted || rep.Compressed || rep.Delta.Enabled {
		t.Fatalf("plain plan: accepted=%v compressed=%v delta=%+v", rep.Accepted, rep.Compressed, rep.Delta)
	}
}

package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"sacha/internal/attestation"
	"sacha/internal/channel"
	"sacha/internal/device"
	"sacha/internal/fabric"
	"sacha/internal/netlist"
	"sacha/internal/obs/span"
	"sacha/internal/protocol"
	"sacha/internal/prover"
	"sacha/internal/timing"
	"sacha/internal/verifier"
)

// smallSystem builds a system on the small device for fast tests.
func smallSystem(t testing.TB, mutate func(*Config)) *System {
	t.Helper()
	cfg := Config{
		Geo:        device.SmallLX(),
		App:        netlist.Blinker(8),
		LabLatency: -1, // zero network latency in tests
		Seed:       1,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestHonestAttestationAccepted(t *testing.T) {
	sys := smallSystem(t, nil)
	rep, err := sys.Attest(AttestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.MACOK {
		t.Error("MAC rejected for honest device")
	}
	if !rep.ConfigOK {
		t.Errorf("config rejected for honest device: %d mismatching frames %v",
			len(rep.Mismatches), head(rep.Mismatches, 5))
	}
	if !rep.Accepted {
		t.Error("honest device not accepted")
	}
	if rep.FramesConfigured != len(sys.DynFrames()) {
		t.Errorf("configured %d frames, want %d", rep.FramesConfigured, len(sys.DynFrames()))
	}
	if rep.FramesRead != sys.Geo.NumFrames() {
		t.Errorf("read %d frames, want %d", rep.FramesRead, sys.Geo.NumFrames())
	}
}

func head(xs []int, n int) []int {
	if len(xs) < n {
		return xs
	}
	return xs[:n]
}

func TestAttestationWithPUFKeys(t *testing.T) {
	for _, mode := range []KeyMode{KeyStatPUF, KeyDynPUF} {
		sys := smallSystem(t, func(c *Config) {
			c.KeyMode = mode
			c.DeviceID = 42
		})
		rep, err := sys.Attest(AttestOptions{})
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if !rep.Accepted {
			t.Errorf("mode %d: honest device rejected", mode)
		}
		if sys.DB.Len() != 1 {
			t.Errorf("mode %d: enrollment database has %d entries", mode, sys.DB.Len())
		}
	}
}

func TestKeyRotation(t *testing.T) {
	// The DynPart-PUF option (§5.2.1): the verifier ships a new PUF
	// circuit and both sides switch keys.
	sys := smallSystem(t, func(c *Config) {
		c.KeyMode = KeyDynPUF
		c.DeviceID = 77
	})
	rep, err := sys.Attest(AttestOptions{})
	if err != nil || !rep.Accepted {
		t.Fatalf("initial circuit: %v", err)
	}
	oldKey := sys.Key
	g1, _ := sys.Golden(5)
	d1, err := sys.GoldenDigest()
	if err != nil {
		t.Fatal(err)
	}

	if err := sys.RotateKey(); err != nil {
		t.Fatal(err)
	}
	// The memoized class digest is dropped with the class golden: the
	// plan-cache key follows the new generation.
	spec, err := sys.PatchableSpec(verifier.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d2, err := fabric.NonceFreeDigest(spec.Golden, fabric.NonceBits); err != nil || d2 == d1 || spec.GoldenDigest != d2 {
		t.Fatalf("after rotation: spec digest %x, image digest %x (%v), before %x", spec.GoldenDigest, d2, err, d1)
	}
	if sys.DB.Len() != 2 {
		t.Fatalf("enrollment DB has %d circuits, want 2", sys.DB.Len())
	}
	rep, err = sys.Attest(AttestOptions{})
	if err != nil || !rep.Accepted {
		t.Fatalf("rotated circuit: %v", err)
	}
	// The golden bitstream changed: the new circuit's configuration is
	// attested.
	g2, _ := sys.Golden(5)
	if g1.Equal(g2) {
		t.Fatal("rotation did not change the golden bitstream")
	}
	// A verifier still holding the old key must reject the device.
	sys.Key = oldKey
	rep, err = sys.Attest(AttestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MACOK || rep.Accepted {
		t.Fatal("stale key accepted after rotation")
	}
}

func TestRotateKeyRequiresDynPUF(t *testing.T) {
	sys := smallSystem(t, nil) // KeyRegister
	if err := sys.RotateKey(); err == nil {
		t.Fatal("rotation accepted outside DynPUF mode")
	}
}

func TestTamperedFrameDetected(t *testing.T) {
	// Flip one configuration bit after configuration, before readback:
	// the masked comparison must flag exactly that frame and the overall
	// verdict must be reject (the MAC itself stays valid — the device is
	// honest about its tampered content).
	sys := smallSystem(t, nil)
	dyn := sys.DynFrames()
	target := dyn[len(dyn)/2]
	rep, err := sys.Attest(AttestOptions{
		TamperDevice: func(d *prover.Device) {
			d.Fabric.Mem.Frame(target)[40] ^= 1 << 7
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted {
		t.Fatal("tampered device accepted")
	}
	if !rep.MACOK {
		t.Error("MAC should still verify (frames authentic, content wrong)")
	}
	if rep.ConfigOK {
		t.Error("masked comparison missed the tampered frame")
	}
	found := false
	for _, idx := range rep.Mismatches {
		if idx == target {
			found = true
		}
	}
	if !found {
		t.Errorf("mismatch list %v does not contain tampered frame %d", head(rep.Mismatches, 5), target)
	}
}

func TestConfiguredAppRunsOnDevice(t *testing.T) {
	sys := smallSystem(t, func(c *Config) { c.App = netlist.Counter(4) })
	if _, err := sys.Attest(AttestOptions{}); err != nil {
		t.Fatal(err)
	}
	// After attestation the device runs the intended application: drive
	// its enable pin and clock it.
	live, err := sys.Device.App()
	if err != nil {
		t.Fatal(err)
	}
	if err := live.InputPin(sys.AppPlacement, "en", 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := live.Step(); err != nil {
			t.Fatal(err)
		}
	}
	v, err := live.OutputPin(sys.AppPlacement, "q0")
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 { // 5 = 0b101
		t.Errorf("q0 = %d after 5 steps, want 1", v)
	}
	v2, _ := live.OutputPin(sys.AppPlacement, "q2")
	if v2 != 1 {
		t.Errorf("q2 = %d after 5 steps, want 1", v2)
	}
}

func TestNonceChangesMAC(t *testing.T) {
	// Two attestations with different nonces must produce different MACs
	// — freshness (the replay protection of §7.2).
	sys := smallSystem(t, nil)
	n1, n2 := uint64(111), uint64(222)
	g1, err := sys.Golden(n1)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := sys.Golden(n2)
	if err != nil {
		t.Fatal(err)
	}
	if g1.Equal(g2) {
		t.Fatal("different nonces produced identical golden images")
	}
	// And the same nonce must be reproducible.
	g1b, _ := sys.Golden(n1)
	if !g1.Equal(g1b) {
		t.Fatal("golden image not deterministic for a fixed nonce")
	}
}

func TestReadbackOffsetAndPermutation(t *testing.T) {
	sys := smallSystem(t, nil)
	// Offset order.
	rep, err := sys.Attest(AttestOptions{Opts: verifier.Options{Offset: 1000}})
	if err != nil || !rep.Accepted {
		t.Fatalf("offset order: %v accepted=%v", err, rep != nil && rep.Accepted)
	}
	// Random permutation.
	n := sys.Geo.NumFrames()
	perm := rand.New(rand.NewSource(3)).Perm(n)
	rep, err = sys.Attest(AttestOptions{Opts: verifier.Options{Permutation: perm}})
	if err != nil || !rep.Accepted {
		t.Fatalf("permuted order: %v", err)
	}
}

func TestBatchedConfiguration(t *testing.T) {
	// §6.1 trade-off end to end: batching frames reduces the message
	// count while the verdict stays identical.
	sys := smallSystem(t, nil)
	rep, err := sys.Attest(AttestOptions{Opts: verifier.Options{ConfigBatch: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Accepted {
		t.Fatal("batched configuration rejected")
	}
	if rep.FramesConfigured != len(sys.DynFrames()) {
		t.Fatalf("configured %d frames", rep.FramesConfigured)
	}
	// Requesting more than the MTU allows is clamped, not an error.
	rep, err = sys.Attest(AttestOptions{Opts: verifier.Options{ConfigBatch: 99}})
	if err != nil || !rep.Accepted {
		t.Fatalf("clamped batch failed: %v", err)
	}
	// Tampering is still caught under batching.
	target := sys.DynFrames()[33]
	rep, err = sys.Attest(AttestOptions{
		Opts: verifier.Options{ConfigBatch: 4},
		TamperDevice: func(d *prover.Device) {
			d.Fabric.Mem.Frame(target)[7] ^= 1
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted {
		t.Fatal("tamper missed under batched configuration")
	}
}

func TestSignatureMode(t *testing.T) {
	sys := smallSystem(t, func(c *Config) { c.EnableSignature = true })
	rep, err := sys.Attest(AttestOptions{Opts: verifier.Options{SignatureMode: true}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Accepted {
		t.Error("signature-mode attestation rejected for honest device")
	}
}

func TestSignatureModeUnprovisioned(t *testing.T) {
	sys := smallSystem(t, nil) // no signer
	_, err := sys.Attest(AttestOptions{Opts: verifier.Options{SignatureMode: true}})
	if err == nil {
		t.Fatal("signature mode without enrollment should fail")
	}
}

func TestCaptureExtension(t *testing.T) {
	sys := smallSystem(t, func(c *Config) { c.App = netlist.LFSR(8, []int{0, 2, 3, 4}) })
	rep, err := sys.Attest(AttestOptions{Opts: verifier.Options{AppSteps: 37}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Accepted {
		t.Errorf("CAPTURE attestation rejected: MACOK=%v ConfigOK=%v mismatches=%v",
			rep.MACOK, rep.ConfigOK, head(rep.Mismatches, 5))
	}
}

func TestTraceOutput(t *testing.T) {
	sys := smallSystem(t, nil)
	sp := span.NewCollector(1).StartTrace(1, "attestation")
	rep, err := sys.Attest(AttestOptions{Opts: verifier.Options{Span: sp}})
	if err != nil || !rep.Accepted {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := attestation.WriteMilestones(&buf, sp.Events()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"ICAP_config", "ICAP_readback", "MAC_checksum", "B_Prv == B_Vrf"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace lacks %q:\n%s", want, out)
		}
	}
}

func TestEventLogRecordsProtocol(t *testing.T) {
	sys := smallSystem(t, nil)
	sp := span.NewCollector(1).StartTrace(1, "attestation")
	rep, err := sys.Attest(AttestOptions{Opts: verifier.Options{Span: sp}})
	if err != nil || !rep.Accepted {
		t.Fatal(err)
	}
	kinds := sp.Kinds()
	if got := kinds[attestation.StepConfig].Count; got != len(sys.DynFrames()) {
		t.Errorf("config events %d, want %d", got, len(sys.DynFrames()))
	}
	if got := kinds[attestation.StepReadback].Count; got != sys.Geo.NumFrames() {
		t.Errorf("readback events %d, want %d", got, sys.Geo.NumFrames())
	}
	if kinds[attestation.StepChecksum].Count != 1 || kinds[attestation.StepMACValue].Count != 1 {
		t.Error("checksum exchange not recorded")
	}
	recorded := 0
	var got time.Duration
	for _, k := range kinds {
		recorded += k.Count
		got += k.Total
	}
	events := sp.Events()
	if len(events) >= recorded {
		t.Errorf("retention cap not applied: %d of %d events retained", len(events), recorded)
	}
	if last := events[len(events)-1]; !strings.HasPrefix(last.Note, "verdict: ") {
		t.Errorf("the verdict milestone past the step streams was not retained; last event %+v", last)
	}
	// The per-event durations sum to the Table 4 theoretical total for
	// this geometry (A5 init is folded into the first readback's margin).
	model := timing.NewModel(sys.Geo)
	want := model.Table4().Theoretical
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	if diff > want/50 {
		t.Errorf("event log elapsed %v vs Table 4 theoretical %v", got, want)
	}
}

func TestVirtualDurationAccounted(t *testing.T) {
	sys := smallSystem(t, nil)
	if _, err := sys.Attest(AttestOptions{}); err != nil {
		t.Fatal(err)
	}
	if sys.VirtualDuration() == 0 {
		t.Fatal("no virtual time accumulated")
	}
	if sys.ChannelTime.Tag("wire") == 0 {
		t.Fatal("no wire time accumulated")
	}
	sys.ResetTimelines()
	if sys.VirtualDuration() != 0 {
		t.Fatal("ResetTimelines did not clear")
	}
}

func TestRepeatedAttestations(t *testing.T) {
	sys := smallSystem(t, nil)
	for i := 0; i < 3; i++ {
		rep, err := sys.Attest(AttestOptions{})
		if err != nil || !rep.Accepted {
			t.Fatalf("attestation %d failed: %v", i, err)
		}
	}
}

func TestDynFramesPartition(t *testing.T) {
	sys := smallSystem(t, nil)
	dyn := sys.DynFrames()
	seen := map[int]bool{}
	for _, f := range dyn {
		if seen[f] {
			t.Fatalf("frame %d sent twice during configuration", f)
		}
		seen[f] = true
	}
	if fmt.Sprint(len(dyn)) == "0" {
		t.Fatal("no dynamic frames")
	}
}

func TestCaptureAttestsSoftCoreState(t *testing.T) {
	// The paper's §8 vision, end to end: a soft-core processor lives in
	// the dynamic partition; CAPTURE attestation verifies the FPGA
	// configuration *and* the processor's live state (ACC, PC) against a
	// verifier-side prediction.
	prog := netlist.SC4Program{
		{Op: netlist.SC4Addi, Imm: 3},
		{Op: netlist.SC4Xori, Imm: 0x55},
		{Op: netlist.SC4Jmp, Imm: 0},
	}
	sys := smallSystem(t, func(c *Config) { c.App = netlist.SoftCore(prog) })
	const steps = 23
	rep, err := sys.Attest(AttestOptions{Opts: verifier.Options{AppSteps: steps}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Accepted {
		t.Fatalf("soft-core CAPTURE attestation rejected: MACOK=%v ConfigOK=%v mismatches=%d",
			rep.MACOK, rep.ConfigOK, len(rep.Mismatches))
	}
	// The device's soft core really is in the predicted state.
	live, err := sys.Device.App()
	if err != nil {
		t.Fatal(err)
	}
	var acc uint8
	for i := 0; i < 8; i++ {
		v, err := live.OutputPin(sys.AppPlacement, fmt.Sprintf("acc%d", i))
		if err != nil {
			t.Fatal(err)
		}
		acc |= v << uint(i)
	}
	wantAcc, _ := netlist.SC4Reference(prog, steps)
	if acc != wantAcc {
		t.Fatalf("soft core ACC=%#x, reference %#x", acc, wantAcc)
	}

	// A processor in the WRONG state (one extra cycle) must be rejected
	// by CAPTURE attestation even though the configuration is pristine.
	rep, err = sys.Attest(AttestOptions{
		Opts: verifier.Options{AppSteps: steps},
		TamperDevice: func(d *prover.Device) {
			// The adversary pre-clocks the core once before the verifier's
			// AppStep command, desynchronising the state.
			l, err := d.App()
			if err == nil {
				l.Step()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted {
		t.Fatal("desynchronised soft-core state accepted by CAPTURE attestation")
	}
	if !rep.MACOK {
		t.Error("MAC should verify — only the captured state is wrong")
	}
}

func TestROMEmbeddedAndAttested(t *testing.T) {
	rom := []byte("firmware image for the soft core, embedded in BRAM content columns")
	sys := smallSystem(t, func(c *Config) { c.ROM = rom })
	rep, err := sys.Attest(AttestOptions{})
	if err != nil || !rep.Accepted {
		t.Fatalf("ROM-bearing system rejected: %v", err)
	}
	// The ROM is readable from the configured device.
	got, err := sys.ReadDeviceROM()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(rom) {
		t.Fatalf("device ROM = %q", got)
	}
	// Tampering with the ROM content is caught like any config tamper.
	rep, err = sys.Attest(AttestOptions{TamperDevice: func(d *prover.Device) {
		region := fabric.AppRegion(sys.Geo)
		data, err := fabric.ReadBRAMContent(d.Fabric.Mem, region.BRAMCnt[0][0], region.BRAMCnt[0][1], 0)
		if err != nil {
			t.Error(err)
			return
		}
		data[5] ^= 0x01
		if err := fabric.WriteBRAMContent(d.Fabric.Mem, region.BRAMCnt[0][0], region.BRAMCnt[0][1], 0, data); err != nil {
			t.Error(err)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted {
		t.Fatal("ROM tamper accepted")
	}
}

func TestBadConfig(t *testing.T) {
	if _, err := NewSystem(Config{Geo: device.SmallLX(), KeyMode: KeyMode(99), LabLatency: -1}); err == nil {
		t.Fatal("unknown key mode accepted")
	}
}

// TestTamperWindowKeepsConfiguredFFState: the adversary's window opens
// after the last configuration command, and by then the flip-flops of
// every column that command wrote must hold what the post-configuration
// reset loaded from the configured init bits. A hook that flips the init
// bit of a used nonce-register FF, in the column the last configuration
// batch wrote, changes the configuration (the verdict catches that), but
// the FF's capture bit must still read back the pre-tamper init value.
func TestTamperWindowKeepsConfiguredFFState(t *testing.T) {
	sys, err := NewSystem(Config{Geo: device.TinyLX(), LabLatency: -1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	refs, err := fabric.NonceTemplate(sys.Geo, fabric.NonceBits)
	if err != nil {
		t.Fatal(err)
	}
	nonceFrames, err := fabric.NonceColumnFrames(sys.Geo)
	if err != nil {
		t.Fatal(err)
	}
	nonce := uint64(0x0123456789ABCDEF)
	const bit = 5
	ref := refs[bit]
	var lastConfig []uint32 // frames of the last configuration command
	var captured []uint32   // the read-back words of ref.CapFrame
	rep, err := sys.Attest(AttestOptions{
		Nonce: &nonce,
		Opts:  verifier.Options{ConfigBatch: 16},
		TamperDevice: func(d *prover.Device) {
			d.Fabric.Mem.Frame(ref.InitFrame)[ref.InitWord] ^= ref.InitMask
		},
		WrapVerifierChannel: func(ep channel.Endpoint) channel.Endpoint {
			return &channel.Tap{
				Inner: ep,
				OnSend: func(b []byte) []byte {
					m, err := protocol.Decode(b)
					if err == nil && m.Type == protocol.MsgICAPConfigBatch {
						lastConfig = lastConfig[:0]
						for _, fr := range m.Batch {
							lastConfig = append(lastConfig, fr.Index)
						}
					}
					return b
				},
				OnRecv: func(b []byte) []byte {
					m, err := protocol.Decode(b)
					if err == nil && m.Type == protocol.MsgFrameData && int(m.FrameIndex) == ref.CapFrame {
						captured = captured[:0]
						for w := 0; w+4 <= len(m.Data); w += 4 {
							captured = append(captured, binary.BigEndian.Uint32(m.Data[w:]))
						}
					}
					return b
				},
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted {
		t.Fatal("an init-bit tamper was accepted")
	}
	if !slices.ContainsFunc(lastConfig, func(idx uint32) bool { return slices.Contains(nonceFrames, int(idx)) }) {
		t.Fatalf("the last configuration batch %v does not write the nonce column %v", lastConfig, nonceFrames)
	}
	if captured == nil {
		t.Fatalf("frame %d was never read back", ref.CapFrame)
	}
	got := captured[ref.CapWord]&ref.CapMask != 0
	if want := nonce>>bit&1 == 1; got != want {
		t.Fatalf("capture bit of nonce FF %d reads %v, want the configured init value %v", bit, got, want)
	}
}

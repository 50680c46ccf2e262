package verifier

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"sacha/internal/attestation"
	"sacha/internal/bitstream"
	"sacha/internal/channel"
	"sacha/internal/device"
	"sacha/internal/fabric"
	"sacha/internal/prover"
)

// testPolicy is a fast retry policy for the simulated link.
func testPolicy() attestation.RetryPolicy {
	return attestation.RetryPolicy{Timeout: 25 * time.Millisecond, MaxRetries: 5,
		Backoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond, Seed: 1}
}

// faultyProverSession boots a real TinyLX prover, serves it on an inline
// link and returns the verifier-side endpoint wrapped in the fault injector,
// plus the enrolled key and the spec to attest it with. TinyLX keeps the
// full-device bijective readback (112 frames) fast enough to run under
// retries.
func faultyProverSession(t *testing.T, cfg channel.FaultConfig) ([16]byte, channel.Endpoint, attestation.Spec) {
	t.Helper()
	geo := device.TinyLX()
	statFrames := fabric.StatRegion(geo).Frames()
	boot := fabric.NewImage(geo)
	fabric.FillStatic(boot, statFrames, 1)
	key := prover.RegisterKey{9, 9, 9}
	dev, err := prover.New(prover.Config{
		Geo:     geo,
		BootMem: bitstream.FromImage(boot, statFrames),
		Key:     key,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.PowerOn(); err != nil {
		t.Fatal(err)
	}

	faulty := channel.NewFault(channel.NewInline(dev.Handler(), channel.SimConfig{}), cfg)
	t.Cleanup(func() { faulty.Close() })

	// The golden image: booted static partition, zeroed dynamic partition
	// (which is exactly what the test configures).
	golden := fabric.NewImage(geo)
	fabric.FillStatic(golden, statFrames, 1)
	return key, faulty, attestation.Spec{Geo: geo, Golden: golden, DynFrames: fabric.DynRegion(geo).Frames()}
}

// faultIndexes computes the message-index layout of one full TinyLX
// attestation under the stop-and-wait transport: sends 0..nCfg-1 are the
// ICAP_config commands, nCfg..nCfg+nFrames-1 the readbacks, and
// nCfg+nFrames the checksum. Receives line up 1:1.
func faultIndexes() (cfgMid, rb0, rb1, rb2, checksum int) {
	geo := device.TinyLX()
	nCfg := len(fabric.DynRegion(geo).Frames())
	return nCfg / 2, nCfg, nCfg + 1, nCfg + 2, nCfg + geo.NumFrames()
}

// attestFull runs a full-device attestation — every dynamic frame
// configured, every frame read back in the validated bijective order.
func attestFull(t *testing.T, cfg channel.FaultConfig, pol attestation.RetryPolicy) (*Report, error) {
	t.Helper()
	key, ep, spec := faultyProverSession(t, cfg)
	return attest(ep, spec, attestation.RunOpts{Key: key, Retry: pol})
}

// requireMACOK asserts the protocol completed with a clean MAC and at
// least one retry — transport recovery, not luck.
func requireMACOK(t *testing.T, rep *Report, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("attest: %v", err)
	}
	if !rep.MACOK {
		t.Fatal("MAC rejected on an honest device — a transport fault leaked into the verdict")
	}
	if rep.Retries == 0 {
		t.Fatal("no retries counted despite injected faults")
	}
}

func TestRetryRecoversFromDroppedCommand(t *testing.T) {
	_, rb0, _, rb2, _ := faultIndexes()
	rep, err := attestFull(t, channel.FaultConfig{Script: []channel.FaultOp{
		{Dir: channel.DirSend, Index: 1, Kind: channel.FaultDrop},
		{Dir: channel.DirSend, Index: rb0, Kind: channel.FaultDrop},
		{Dir: channel.DirSend, Index: rb2 + 1, Kind: channel.FaultDrop},
	}}, testPolicy())
	requireMACOK(t, rep, err)
	if rep.Retries < 2 {
		t.Fatalf("retries = %d, want >= 2", rep.Retries)
	}
}

func TestRetryRecoversFromDroppedResponse(t *testing.T) {
	_, rb0, _, _, _ := faultIndexes()
	rep, err := attestFull(t, channel.FaultConfig{Script: []channel.FaultOp{
		{Dir: channel.DirRecv, Index: rb0, Kind: channel.FaultDrop},
	}}, testPolicy())
	requireMACOK(t, rep, err)
}

func TestRetryRecoversFromCorruptedResponse(t *testing.T) {
	// A frame-sendback response with a flipped bit: the envelope CRC must
	// catch it, the verifier discard and re-request, and the replayed
	// cached response keep the MAC intact. Silent acceptance of the
	// corrupted frame would flip the verdict — the one outcome the
	// transport layer exists to prevent.
	_, _, rb1, _, _ := faultIndexes()
	rep, err := attestFull(t, channel.FaultConfig{Seed: 3, Script: []channel.FaultOp{
		{Dir: channel.DirRecv, Index: rb1, Kind: channel.FaultCorrupt},
	}}, testPolicy())
	requireMACOK(t, rep, err)
	if rep.TransportFaults == 0 {
		t.Fatal("corrupted response not counted as a transport fault")
	}
}

func TestRetryRecoversFromCorruptedCommand(t *testing.T) {
	// The corrupted command reaches the prover, which answers with a
	// decode Error (or a CRC-rejected envelope); either way the verifier
	// must re-send rather than fail or accept.
	_, rb0, _, _, _ := faultIndexes()
	rep, err := attestFull(t, channel.FaultConfig{Seed: 4, Script: []channel.FaultOp{
		{Dir: channel.DirSend, Index: rb0, Kind: channel.FaultCorrupt},
	}}, testPolicy())
	requireMACOK(t, rep, err)
}

func TestRetryRecoversFromDuplicatedCommand(t *testing.T) {
	// The duplicate hits the prover's sequence cache; the extra cached
	// response is discarded by sequence matching on the next exchange.
	_, rb0, _, rb2, _ := faultIndexes()
	rep, err := attestFull(t, channel.FaultConfig{Script: []channel.FaultOp{
		{Dir: channel.DirSend, Index: rb0, Kind: channel.FaultDuplicate},
		{Dir: channel.DirSend, Index: rb2, Kind: channel.FaultDuplicate},
	}}, testPolicy())
	if err != nil {
		t.Fatalf("attest: %v", err)
	}
	if !rep.MACOK {
		t.Fatal("duplicated readback corrupted the MAC — request not idempotent")
	}
}

func TestRetryBudgetExhaustionIsTyped(t *testing.T) {
	// A dead link (every message dropped) must exhaust the budget and
	// surface as a TransportError wrapping a timeout — never as a verdict.
	pol := attestation.RetryPolicy{Timeout: 10 * time.Millisecond, MaxRetries: 2, Backoff: time.Millisecond}
	rep, err := attestFull(t, channel.FaultConfig{DropProb: 1}, pol)
	if rep != nil && err == nil {
		t.Fatal("dead link produced a verdict")
	}
	if !attestation.IsTransport(err) {
		t.Fatalf("got %v, want TransportError", err)
	}
	if !errors.Is(err, channel.ErrTimeout) {
		t.Fatalf("cause %v, want ErrTimeout", err)
	}
	var te *attestation.TransportError
	errors.As(err, &te)
	if te.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (1 + 2 retries)", te.Attempts)
	}
}

func TestRetriesDisabledFailsFast(t *testing.T) {
	// MaxRetries 0: one attempt per message; a single dropped command must
	// fail the attestation with a typed transport error.
	_, rb0, _, _, _ := faultIndexes()
	pol := attestation.RetryPolicy{Timeout: 20 * time.Millisecond, MaxRetries: 0, Backoff: time.Millisecond}
	_, err := attestFull(t, channel.FaultConfig{Script: []channel.FaultOp{
		{Dir: channel.DirSend, Index: rb0, Kind: channel.FaultDrop},
	}}, pol)
	if !attestation.IsTransport(err) {
		t.Fatalf("got %v, want TransportError", err)
	}
}

func TestConnectionResetIsTyped(t *testing.T) {
	cfgMid, _, _, _, _ := faultIndexes()
	_, err := attestFull(t, channel.FaultConfig{Script: []channel.FaultOp{
		{Dir: channel.DirSend, Index: cfgMid, Kind: channel.FaultReset},
	}}, testPolicy())
	if !attestation.IsTransport(err) {
		t.Fatalf("got %v, want TransportError", err)
	}
	if !errors.Is(err, channel.ErrReset) {
		t.Fatalf("cause %v, want ErrReset", err)
	}
}

func TestLossyLotterySurvived(t *testing.T) {
	// The acceptance mix — random drops and corruption over the whole
	// full-device run, seeded for reproducibility. The rates are scaled
	// to the ~200-message TinyLX exchange so the test stays fast while
	// still injecting a handful of each fault kind.
	rep, err := attestFull(t, channel.FaultConfig{
		Seed: 42, DropProb: 0.02, CorruptProb: 0.005,
	}, testPolicy())
	if err != nil {
		t.Fatalf("attest: %v", err)
	}
	if !rep.MACOK {
		t.Fatal("lossy link flipped the MAC verdict")
	}
}

func TestTransportErrorFormatting(t *testing.T) {
	te := &attestation.TransportError{Op: "ICAP_readback(17)", Attempts: 3, Err: channel.ErrTimeout}
	msg := te.Error()
	for _, want := range []string{"ICAP_readback(17)", "3", "timeout"} {
		if !contains(msg, want) {
			t.Fatalf("error %q missing %q", msg, want)
		}
	}
	if !attestation.IsTransport(fmt.Errorf("wrapped: %w", te)) {
		t.Fatal("IsTransport fails through wrapping")
	}
	if attestation.IsTransport(errors.New("plain")) {
		t.Fatal("IsTransport false positive")
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

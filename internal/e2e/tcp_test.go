package e2e

import (
	"errors"
	"testing"

	"sacha/internal/attestation"
	"sacha/internal/channel"
)

// TestTCPCleanLink is the baseline: the bare paper protocol (no retry
// envelopes) over a real loopback TCP connection must accept the honest
// device without a single retry.
func TestTCPCleanLink(t *testing.T) {
	r := newRig(t)
	addr := r.serveTCP(t)
	ep := dialFaulty(t, addr, channel.FaultConfig{})
	rep, err := r.attest(ep, attestation.RunOpts{})
	if err != nil {
		t.Fatalf("attest: %v", err)
	}
	if !rep.Accepted {
		t.Fatalf("honest device rejected: MACOK=%v ConfigOK=%v mismatches=%v",
			rep.MACOK, rep.ConfigOK, rep.Mismatches)
	}
	if rep.Retries != 0 || rep.TransportFaults != 0 {
		t.Fatalf("clean link counted retries=%d faults=%d", rep.Retries, rep.TransportFaults)
	}
}

// TestTCPLossyLinkAccepted is the acceptance scenario: 10% drop and 1%
// corruption on every message in both directions, over real TCP. The
// reliable transport must absorb all of it — the attestation completes,
// the device is accepted, and the retry counter proves the link was
// actually lossy.
func TestTCPLossyLinkAccepted(t *testing.T) {
	r := newRig(t)
	addr := r.serveTCP(t)
	ep := dialFaulty(t, addr, channel.FaultConfig{Seed: 11, DropProb: 0.10, CorruptProb: 0.01})
	rep, err := r.attest(ep, attestation.RunOpts{Retry: retryPolicy()})
	if err != nil {
		t.Fatalf("attest over lossy link: %v", err)
	}
	if !rep.Accepted {
		t.Fatalf("transport faults leaked into the verdict: MACOK=%v ConfigOK=%v",
			rep.MACOK, rep.ConfigOK)
	}
	if rep.Retries == 0 {
		t.Fatal("lossy link needed zero retries — injector inactive?")
	}
	st := ep.Stats()
	if st.Dropped == 0 {
		t.Fatal("injector dropped nothing at 10% drop probability")
	}
}

// TestTCPLossyLinkRetriesDisabled reruns the same lossy link with the
// retry budget at zero: the run must fail with a typed transport error —
// not hang, and above all not report the device as compromised.
func TestTCPLossyLinkRetriesDisabled(t *testing.T) {
	r := newRig(t)
	addr := r.serveTCP(t)
	ep := dialFaulty(t, addr, channel.FaultConfig{Seed: 11, DropProb: 0.10, CorruptProb: 0.01})
	pol := retryPolicy()
	pol.MaxRetries = 0
	rep, err := r.attest(ep, attestation.RunOpts{Retry: pol})
	if err == nil {
		t.Fatalf("lossy link with retries disabled produced a verdict: %+v", rep)
	}
	if !attestation.IsTransport(err) {
		t.Fatalf("got %v, want TransportError", err)
	}
}

// TestTCPMidProtocolReset injects a connection reset in the middle of
// the readback phase. The verifier must surface a typed transport error
// carrying ErrReset; the prover's serve loop must survive the teardown
// and accept a fresh session that attests clean.
func TestTCPMidProtocolReset(t *testing.T) {
	r := newRig(t)
	addr := r.serveTCP(t)
	resetAt := len(r.dyn) + r.geo.NumFrames()/2 // middle of the readbacks
	ep := dialFaulty(t, addr, channel.FaultConfig{Script: []channel.FaultOp{
		{Dir: channel.DirSend, Index: resetAt, Kind: channel.FaultReset},
	}})
	rep, err := r.attest(ep, attestation.RunOpts{Retry: retryPolicy()})
	if err == nil {
		t.Fatalf("reset mid-protocol produced a verdict: %+v", rep)
	}
	if !attestation.IsTransport(err) {
		t.Fatalf("got %v, want TransportError", err)
	}
	if !errors.Is(err, channel.ErrReset) {
		t.Fatalf("cause %v, want ErrReset", err)
	}

	// The device power-cycles state per session only on PowerOn; a fresh
	// connection must still attest clean after the torn-down one.
	ep2 := dialFaulty(t, addr, channel.FaultConfig{})
	rep2, err := r.attest(ep2, attestation.RunOpts{Retry: retryPolicy()})
	if err != nil {
		t.Fatalf("re-attest after reset: %v", err)
	}
	if !rep2.Accepted {
		t.Fatal("device rejected on the session after a reset")
	}
}

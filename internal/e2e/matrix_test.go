package e2e

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"sacha/internal/attestation"
	"sacha/internal/channel"
)

// TestFaultMatrix sweeps every recoverable fault kind across every
// protocol phase, in both directions, as a deterministic scripted
// single-fault experiment on the simulated channel. The contract is the
// whole point of the reliable transport: one injected fault within the
// retry budget must never change the verdict — the attestation recovers
// and accepts the honest device.
//
// Message indexing (stop-and-wait, config batch 1): sends 0..C-1 are the
// ICAP_config commands, C..C+N-1 the ICAP_readbacks, C+N the
// MAC_checksum, where C = len(dyn) and N = NumFrames. Receives line up
// 1:1 (acks, frame sendbacks, MAC value).
func TestFaultMatrix(t *testing.T) {
	r0 := newRig(t) // counts only; each subtest builds its own rig
	c := len(r0.dyn)
	n := r0.geo.NumFrames()

	phases := []struct {
		name  string
		index int
	}{
		{"config", c / 2},
		{"readback", c + n/2},
		{"checksum", c + n},
	}
	kinds := []channel.FaultKind{
		channel.FaultDrop,
		channel.FaultDuplicate,
		channel.FaultReorder,
		channel.FaultCorrupt,
		channel.FaultDelay,
	}
	dirs := []struct {
		name string
		dir  channel.Direction
	}{
		{"cmd", channel.DirSend},
		{"resp", channel.DirRecv},
	}

	seed := int64(0)
	for _, ph := range phases {
		for _, k := range kinds {
			for _, d := range dirs {
				seed++
				name := fmt.Sprintf("%s/%s/%s", ph.name, k, d.name)
				cfg := channel.FaultConfig{
					Seed:   seed,
					Delay:  5 * time.Millisecond,
					Script: []channel.FaultOp{{Dir: d.dir, Index: ph.index, Kind: k}},
				}
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					r := newRig(t)
					ep := r.serveSim(t, cfg)
					rep, err := r.attest(ep, attestation.RunOpts{Retry: matrixPolicy()})
					if err != nil {
						t.Fatalf("single %v fault exceeded the retry budget: %v", k, err)
					}
					if !rep.Accepted {
						t.Fatalf("single %v fault flipped the verdict: MACOK=%v ConfigOK=%v",
							k, rep.MACOK, rep.ConfigOK)
					}
				})
			}
		}
	}
}

// TestFaultMatrixReset covers the one kind that must NOT recover: a
// connection reset at any phase surfaces as a typed transport error
// carrying ErrReset — never as a verdict.
func TestFaultMatrixReset(t *testing.T) {
	r0 := newRig(t)
	c := len(r0.dyn)
	n := r0.geo.NumFrames()

	for _, ph := range []struct {
		name  string
		index int
	}{
		{"config", c / 2},
		{"readback", c + n/2},
		{"checksum", c + n},
	} {
		t.Run(ph.name, func(t *testing.T) {
			t.Parallel()
			r := newRig(t)
			ep := r.serveSim(t, channel.FaultConfig{Script: []channel.FaultOp{
				{Dir: channel.DirSend, Index: ph.index, Kind: channel.FaultReset},
			}})
			rep, err := r.attest(ep, attestation.RunOpts{Retry: matrixPolicy()})
			if err == nil {
				t.Fatalf("reset produced a verdict: %+v", rep)
			}
			if !attestation.IsTransport(err) {
				t.Fatalf("got %v, want TransportError", err)
			}
			if !errors.Is(err, channel.ErrReset) {
				t.Fatalf("cause %v, want ErrReset", err)
			}
		})
	}
}

// matrixPolicy keeps the sweep fast: the simulated channel has no real
// latency, so a short timeout re-sends quickly after a dropped message.
func matrixPolicy() attestation.RetryPolicy {
	return attestation.RetryPolicy{
		Timeout:    25 * time.Millisecond,
		MaxRetries: 5,
		Backoff:    time.Millisecond,
		MaxBackoff: 4 * time.Millisecond,
		Seed:       1,
	}
}

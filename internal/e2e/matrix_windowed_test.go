package e2e

import (
	"fmt"
	"testing"
	"time"

	"sacha/internal/attestation"
	"sacha/internal/channel"
)

// windowedPolicy is matrixPolicy with an 8-deep pipeline.
func windowedPolicy() attestation.RetryPolicy {
	p := matrixPolicy()
	p.Window = 8
	return p
}

// TestFaultMatrixWindowed re-runs the scripted single-fault sweep with
// the pipelined session (Window = 8). The contract is strictly stronger
// than lockstep recovery: for every fault script the windowed run must
// produce the SAME verdict — and the same H_Vrf — as a clean lockstep
// attestation, because the window engine re-orders arrivals into plan
// order before the order-sensitive CMAC absorbs them. The reorder fault
// is the sharp case: with several envelopes legitimately in flight, the
// engine must tell transport reordering apart from frame misdelivery.
func TestFaultMatrixWindowed(t *testing.T) {
	r0 := newRig(t)
	c := len(r0.dyn)
	n := r0.geo.NumFrames()

	// Clean lockstep baseline: the verdict every faulted windowed run
	// must reproduce bit-for-bit.
	base := newRig(t)
	baseEP := base.serveSim(t, channel.FaultConfig{})
	baseRep, err := base.attest(baseEP, attestation.RunOpts{Retry: matrixPolicy()})
	if err != nil {
		t.Fatalf("lockstep baseline: %v", err)
	}
	if !baseRep.Accepted {
		t.Fatalf("lockstep baseline rejected: %+v", baseRep)
	}

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

	seed := int64(1000)
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
					rep, err := r.attest(ep, attestation.RunOpts{Retry: windowedPolicy()})
					if err != nil {
						t.Fatalf("windowed run under single %v fault failed: %v", k, err)
					}
					if rep.Accepted != baseRep.Accepted || rep.MACOK != baseRep.MACOK || rep.ConfigOK != baseRep.ConfigOK {
						t.Fatalf("verdict diverged from lockstep: windowed (acc=%v mac=%v cfg=%v), lockstep (acc=%v mac=%v cfg=%v)",
							rep.Accepted, rep.MACOK, rep.ConfigOK,
							baseRep.Accepted, baseRep.MACOK, baseRep.ConfigOK)
					}
					if rep.HVrf != baseRep.HVrf {
						t.Fatalf("H_Vrf diverged from lockstep under %v: %x != %x", k, rep.HVrf, baseRep.HVrf)
					}
					if rep.FramesRead != n {
						t.Fatalf("read %d frames, want %d", rep.FramesRead, n)
					}
				})
			}
		}
	}
}

// TestWindowedTCP drives the pipelined session over a real loopback TCP
// connection — the transport a deployed verifier uses — rather than the
// in-process pair.
func TestWindowedTCP(t *testing.T) {
	r := newRig(t)
	addr := r.serveTCP(t)
	ep := dialFaulty(t, addr, channel.FaultConfig{})
	pol := retryPolicy()
	pol.Window = 16
	rep, err := r.attest(ep, attestation.RunOpts{Retry: pol})
	if err != nil {
		t.Fatalf("windowed TCP attestation: %v", err)
	}
	if !rep.Accepted {
		t.Fatalf("windowed TCP attestation rejected: %+v", rep)
	}
	if rep.FramesRead != r.geo.NumFrames() {
		t.Fatalf("read %d frames, want %d", rep.FramesRead, r.geo.NumFrames())
	}
}

// Package e2e holds end-to-end attestation tests: a real prover device
// served over a transport (loopback TCP or the simulated pair), a real
// verifier driving the full Fig. 9 protocol, and the fault injector
// between them. The target is TinyLX — small enough that a full-device
// attestation runs in milliseconds, so faults can be swept per kind and
// per protocol phase.
package e2e

import (
	"net"
	"testing"
	"time"

	"sacha/internal/attestation"
	"sacha/internal/channel"
	"sacha/internal/core"
	"sacha/internal/device"
	"sacha/internal/netlist"
	"sacha/internal/prover"
)

const (
	rigBuildID = 0xD00D
	rigNonce   = 0xCAFEBABE
)

var rigKey = prover.RegisterKey{3, 1, 4, 1, 5}

// rig is one prover/verifier pairing over a tiny device: a powered-on
// device holding the booted static partition, the verifier's plan for
// the golden image it expects, and the dynamic frame list to configure.
type rig struct {
	geo  *device.Geometry
	dev  *prover.Device
	plan *attestation.Plan
	dyn  []int
}

func newRig(t testing.TB) *rig {
	t.Helper()
	geo := device.TinyLX()
	golden, dyn, err := core.BuildGolden(geo, netlist.Blinker(8), rigBuildID, rigNonce)
	if err != nil {
		t.Fatalf("golden build: %v", err)
	}
	dev, err := prover.New(prover.Config{
		Geo:     geo,
		BootMem: core.BuildBootMem(geo, rigBuildID),
		Key:     rigKey,
	})
	if err != nil {
		t.Fatalf("prover: %v", err)
	}
	if err := dev.PowerOn(); err != nil {
		t.Fatalf("power-on: %v", err)
	}
	plan, err := attestation.NewPlan(attestation.Spec{Geo: geo, Golden: golden, DynFrames: dyn})
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	return &rig{geo: geo, dev: dev, plan: plan, dyn: dyn}
}

// attest runs one attestation of the rig's plan over ep under the
// enrolled key.
func (r *rig) attest(ep channel.Endpoint, opts attestation.RunOpts) (*attestation.Report, error) {
	opts.Key = rigKey
	return r.plan.Run(ep, opts)
}

// retryPolicy is the reliable-transport configuration used by the e2e
// runs: short timeouts tuned for loopback latency.
func retryPolicy() attestation.RetryPolicy {
	return attestation.RetryPolicy{
		Timeout:    30 * time.Millisecond,
		MaxRetries: 8,
		Backoff:    time.Millisecond,
		MaxBackoff: 8 * time.Millisecond,
		Seed:       1,
	}
}

// serveTCP exposes the rig's device on a loopback TCP listener and
// returns its address. Sessions are served sequentially, exactly like
// cmd/sacha-prover: after a connection ends (clean close or injected
// reset), the device accepts the next verifier.
func (r *rig) serveTCP(t testing.TB) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			ep := channel.NewTCP(conn)
			r.dev.Serve(ep)
			ep.Close()
		}
	}()
	return ln.Addr().String()
}

// dialFaulty connects to addr and wraps the connection in the fault
// injector.
func dialFaulty(t testing.TB, addr string, cfg channel.FaultConfig) *channel.FaultEndpoint {
	t.Helper()
	tep, err := channel.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	ep := channel.NewFault(tep, cfg)
	t.Cleanup(func() { ep.Close() })
	return ep
}

// serveSim serves the rig's device on a simulated channel pair and
// returns the verifier side wrapped in the fault injector.
func (r *rig) serveSim(t testing.TB, cfg channel.FaultConfig) *channel.FaultEndpoint {
	t.Helper()
	vrfEP, prvEP := channel.SimPair(channel.SimConfig{})
	go r.dev.Serve(prvEP)
	ep := channel.NewFault(vrfEP, cfg)
	t.Cleanup(func() { ep.Close() })
	return ep
}

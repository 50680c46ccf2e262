// External test package: exercises a Plan the way fleet callers do,
// through real provers built by internal/core. (core imports attestation,
// so these tests cannot live in the internal test package.)
package attestation_test

import (
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"sacha/internal/attestation"
	"sacha/internal/channel"
	"sacha/internal/core"
	"sacha/internal/device"
	"sacha/internal/netlist"
	"sacha/internal/protocol"
	"sacha/internal/prover"
)

var runKey = prover.RegisterKey{3, 1, 4, 1, 5}

// newProver boots one TinyLX device of the fleet class the tests' shared
// plan targets (same boot memory, same key).
func newProver(t testing.TB, geo *device.Geometry) channel.Endpoint {
	t.Helper()
	vrfEP := channel.NewInline(newDevice(t, geo).Handler(), channel.SimConfig{})
	t.Cleanup(func() { vrfEP.Close() })
	return vrfEP
}

// newDevice boots one powered-on device of the tests' fleet class.
func newDevice(t testing.TB, geo *device.Geometry) *prover.Device {
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
	return dev
}

func buildPlan(t testing.TB, appSteps uint32) *attestation.Plan {
	t.Helper()
	geo := device.TinyLX()
	golden, dyn, err := core.BuildGolden(geo, netlist.Blinker(8), 0xD00D, 0xCAFEBABE)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := attestation.NewPlan(attestation.Spec{
		Geo: geo, Golden: golden, DynFrames: dyn, AppSteps: appSteps,
	})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestSharedPlanConcurrentRuns is the fleet contract: one immutable Plan,
// many simultaneous per-device Runs. Run under -race this pins the
// concurrency-safety claim, not just the verdicts.
func TestSharedPlanConcurrentRuns(t *testing.T) {
	plan := buildPlan(t, 0)
	const fleet = 8
	reports := make([]*attestation.Report, fleet)
	errs := make([]error, fleet)
	var wg sync.WaitGroup
	for i := 0; i < fleet; i++ {
		ep := newProver(t, plan.Geo())
		wg.Add(1)
		go func(i int, ep channel.Endpoint) {
			defer wg.Done()
			var key [16]byte = runKey
			reports[i], errs[i] = plan.Run(ep, attestation.RunOpts{Key: key})
		}(i, ep)
	}
	wg.Wait()
	for i := 0; i < fleet; i++ {
		if errs[i] != nil {
			t.Fatalf("device %d: %v", i, errs[i])
		}
		if !reports[i].Accepted {
			t.Fatalf("device %d rejected: %+v", i, reports[i])
		}
		if reports[i].FramesRead != plan.NumFrames() {
			t.Fatalf("device %d read %d frames, want %d", i, reports[i].FramesRead, plan.NumFrames())
		}
	}
}

// TestCapturePredictionDeterminism: a CAPTURE plan computes its post-step
// prediction exactly once at build; repeated Runs must keep accepting
// fresh honest devices — the prediction is state, not a per-run side
// effect that could drift.
func TestCapturePredictionDeterminism(t *testing.T) {
	plan := buildPlan(t, 9)
	if plan.AppSteps() != 9 {
		t.Fatalf("plan AppSteps %d", plan.AppSteps())
	}
	for round := 0; round < 3; round++ {
		ep := newProver(t, plan.Geo())
		var key [16]byte = runKey
		rep, err := plan.Run(ep, attestation.RunOpts{Key: key})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !rep.Accepted {
			t.Fatalf("round %d rejected: %+v", round, rep)
		}
	}
}

// TestSharedCapturePlanConcurrentRuns combines both: the CAPTURE
// prediction shared read-only across simultaneous Runs.
func TestSharedCapturePlanConcurrentRuns(t *testing.T) {
	plan := buildPlan(t, 5)
	const fleet = 4
	var wg sync.WaitGroup
	errCh := make(chan error, fleet)
	for i := 0; i < fleet; i++ {
		ep := newProver(t, plan.Geo())
		wg.Add(1)
		go func(ep channel.Endpoint) {
			defer wg.Done()
			var key [16]byte = runKey
			rep, err := plan.Run(ep, attestation.RunOpts{Key: key})
			if err != nil {
				errCh <- err
				return
			}
			if !rep.Accepted {
				errCh <- fmt.Errorf("run rejected: %+v", rep)
			}
		}(ep)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("concurrent CAPTURE run: %v", err)
	}
}

func TestRunSignatureModeRequiresVerifier(t *testing.T) {
	geo := device.TinyLX()
	golden, dyn, err := core.BuildGolden(geo, netlist.Blinker(8), 0xD00D, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := attestation.NewPlan(attestation.Spec{
		Geo: geo, Golden: golden, DynFrames: dyn, SignatureMode: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ep := newProver(t, geo)
	if _, err := plan.Run(ep, attestation.RunOpts{}); err == nil {
		t.Fatal("signature-mode run without a public key accepted")
	}
}

// TestTransportErrorNamesFailingStep pins the text of a transport
// failure: the op label, formatted only when the error is built, must
// name the step and frame exactly — in plain mode at the first
// readback, in reliable mode at the first configuration envelope.
func TestTransportErrorNamesFailingStep(t *testing.T) {
	plan := buildPlan(t, 0)
	var key [16]byte = runKey
	for _, tc := range []struct {
		name   string
		retry  attestation.RetryPolicy
		format string
		stopAt protocol.MsgType
	}{
		{"plain", attestation.RetryPolicy{}, "ICAP_readback(%d)", protocol.MsgICAPReadback},
		{"reliable", attestation.RetryPolicy{Timeout: time.Second}, "ICAP_config(%d)", protocol.MsgICAPConfig},
	} {
		t.Run(tc.name, func(t *testing.T) {
			frame := make(chan uint32, 1)
			// Swallow commands until the first tc.stopAt, then hang up.
			vrfEP := channel.NewInline(func(raw []byte) ([][]byte, error) {
				m, err := protocol.Decode(raw)
				if err == nil && m.Type == protocol.MsgSeqReq {
					m, err = protocol.Decode(m.Inner)
				}
				if err == nil && m.Type == tc.stopAt {
					frame <- m.FrameIndex
					return nil, io.EOF
				}
				return nil, nil
			}, channel.SimConfig{})
			defer vrfEP.Close()
			_, err := plan.Run(vrfEP, attestation.RunOpts{Key: key, Retry: tc.retry})
			if !attestation.IsTransport(err) {
				t.Fatalf("run against a peer that hangs up: %v, want a transport error", err)
			}
			want := fmt.Sprintf("verifier: transport failure at "+tc.format+" after 1 attempt(s): EOF", <-frame)
			if err.Error() != want {
				t.Fatalf("error %q, want %q", err, want)
			}
		})
	}
}

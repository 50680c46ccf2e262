package attestation_test

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"sacha/internal/attestation"
	"sacha/internal/channel"
	"sacha/internal/core"
	"sacha/internal/device"
	"sacha/internal/prover"
)

// newProverBuild boots one device with a chosen static build ID and an
// optional verifier-side channel wrapper (fault injection). A build ID
// differing from the plan's golden yields deterministic static-frame
// mismatches — the rejected-device fixture of the determinism tests.
func newProverBuild(t testing.TB, geo *device.Geometry, buildID uint64, wrap func(channel.Endpoint) channel.Endpoint) channel.Endpoint {
	t.Helper()
	dev, err := prover.New(prover.Config{
		Geo:     geo,
		BootMem: core.BuildBootMem(geo, buildID),
		Key:     runKey,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.PowerOn(); err != nil {
		t.Fatal(err)
	}
	vrfEP := channel.NewInline(dev.Handler(), channel.SimConfig{})
	var ep channel.Endpoint = vrfEP
	if wrap != nil {
		ep = wrap(vrfEP)
	}
	t.Cleanup(func() { ep.Close() })
	return ep
}

func windowPolicy(window int) attestation.RetryPolicy {
	return attestation.RetryPolicy{
		Timeout:    25 * time.Millisecond,
		MaxRetries: 6,
		Backoff:    time.Millisecond,
		MaxBackoff: 4 * time.Millisecond,
		Seed:       1,
		Window:     window,
	}
}

// TestWindowDeterminism is the correctness invariant of the pipelined
// path: H_Vrf, the mismatch list and the verdict must be bit-identical
// whatever the window size and whatever recoverable reordering or
// duplication the link injects — the CMAC is order-sensitive, so any
// leak of arrival order into the absorption would show up here. Both an
// honest device and a tampered one (wrong static build) are swept, so
// the comparison covers a non-empty mismatch list too.
func TestWindowDeterminism(t *testing.T) {
	plan := buildPlan(t, 0)
	c := plan.NumFrames() // readback message count; configs precede them

	faults := []struct {
		name string
		cfg  *channel.FaultConfig
	}{
		{"clean", nil},
		{"dup", &channel.FaultConfig{Script: []channel.FaultOp{
			{Dir: channel.DirSend, Index: 10, Kind: channel.FaultDuplicate},
			{Dir: channel.DirRecv, Index: c / 2, Kind: channel.FaultDuplicate},
		}}},
		{"reorder", &channel.FaultConfig{ReorderWindow: 3, Script: []channel.FaultOp{
			{Dir: channel.DirRecv, Index: c / 3, Kind: channel.FaultReorder},
			{Dir: channel.DirSend, Index: c / 2, Kind: channel.FaultReorder},
		}}},
	}

	for _, pv := range []struct {
		name    string
		buildID uint64
	}{
		{"honest", 0xD00D},
		{"tampered", 0xBEEF},
	} {
		t.Run(pv.name, func(t *testing.T) {
			var baseline *attestation.Report
			for _, fl := range faults {
				for _, window := range []int{1, 4, 16, 100} { // 100 exercises the MaxWindow clamp
					ep := newProverBuild(t, plan.Geo(), pv.buildID, func(ep channel.Endpoint) channel.Endpoint {
						if fl.cfg == nil {
							return ep
						}
						return channel.NewFault(ep, *fl.cfg)
					})
					var key [16]byte = runKey
					rep, err := plan.Run(ep, attestation.RunOpts{Key: key, Retry: windowPolicy(window)})
					if err != nil {
						t.Fatalf("%s/window=%d: %v", fl.name, window, err)
					}
					if baseline == nil {
						baseline = rep
						if pv.buildID == 0xBEEF && len(rep.Mismatches) == 0 {
							t.Fatal("tampered baseline found no mismatches — fixture broken")
						}
						if rep.HVrf == ([16]byte{}) {
							t.Fatal("baseline H_Vrf is zero in MAC mode")
						}
						continue
					}
					if rep.HVrf != baseline.HVrf {
						t.Fatalf("%s/window=%d: H_Vrf %x != baseline %x", fl.name, window, rep.HVrf, baseline.HVrf)
					}
					if !reflect.DeepEqual(rep.Mismatches, baseline.Mismatches) {
						t.Fatalf("%s/window=%d: mismatches %v != baseline %v", fl.name, window, rep.Mismatches, baseline.Mismatches)
					}
					if rep.MACOK != baseline.MACOK || rep.ConfigOK != baseline.ConfigOK || rep.Accepted != baseline.Accepted {
						t.Fatalf("%s/window=%d: verdict (%v,%v,%v) != baseline (%v,%v,%v)",
							fl.name, window, rep.MACOK, rep.ConfigOK, rep.Accepted,
							baseline.MACOK, baseline.ConfigOK, baseline.Accepted)
					}
					if rep.FramesRead != plan.NumFrames() {
						t.Fatalf("%s/window=%d: read %d frames, want %d", fl.name, window, rep.FramesRead, plan.NumFrames())
					}
				}
			}
		})
	}
}

// TestWindowIgnoredWithoutReliableTransport: Window only means something
// over the sequence-envelope transport; in plain mode the Run must fall
// back to the paper's lockstep protocol and still accept.
func TestWindowIgnoredWithoutReliableTransport(t *testing.T) {
	plan := buildPlan(t, 0)
	ep := newProver(t, plan.Geo())
	var key [16]byte = runKey
	rep, err := plan.Run(ep, attestation.RunOpts{Key: key, Retry: attestation.RetryPolicy{Window: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Accepted {
		t.Fatalf("plain-mode run with Window set rejected: %+v", rep)
	}
}

// TestSessionPumpNoLeak: a Run over an endpoint with no deadline
// receive of its own gets WithRecvUntil's receive goroutine. A Run that
// fails early (retry budget exhausted) while the peer floods the link
// must not strand that goroutine on its full buffer: the deferred
// session close releases it, and the goroutine count has to return to
// baseline once the link is closed.
func TestSessionPumpNoLeak(t *testing.T) {
	plan := buildPlan(t, 0)
	var key [16]byte = runKey
	base := runtime.NumGoroutine()
	junk := make([][]byte, 500)
	for j := range junk {
		junk[j] = []byte{0xFF, 0xEE}
	}
	for i := 0; i < 4; i++ {
		// Answer every command with undecodable junk — far more than
		// the 64-slot receive buffer.
		link := channel.NewInline(func([]byte) ([][]byte, error) { return junk, nil }, channel.SimConfig{})
		_, err := plan.Run(recvOnly{link}, attestation.RunOpts{Key: key, Retry: attestation.RetryPolicy{
			Timeout: 10 * time.Millisecond, MaxRetries: 1, Backoff: time.Millisecond, Window: 8,
		}})
		if err == nil {
			t.Fatal("junk-flooded run succeeded")
		}
		link.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d at start, %d after runs", base, runtime.NumGoroutine())
}

// recvOnly hides every method but the Endpoint ones, as a caller's
// wrapper does.
type recvOnly struct{ channel.Endpoint }

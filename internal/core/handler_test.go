package core

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"sacha/internal/attestation"
	"sacha/internal/channel"
	"sacha/internal/device"
	"sacha/internal/verifier"
)

// TestProverErrorEndsSession: a prover handler that fails mid-session
// ends the session with the prover's error instead of leaving the
// verifier blocked on a response that never comes — in plain mode, where
// no retry timer would ever fire, and in reliable mode.
func TestProverErrorEndsSession(t *testing.T) {
	boom := errors.New("prover fault")
	for _, tc := range []struct {
		name string
		opts verifier.Options
	}{
		{"plain", verifier.Options{}},
		{"reliable", verifier.Options{Retry: attestation.RetryPolicy{Timeout: time.Second, MaxRetries: 3}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := NewSystem(Config{Geo: device.TinyLX(), LabLatency: -1, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			h := sys.Device.Handler()
			calls := 0
			done := make(chan error, 1)
			go func() {
				_, err := sys.AttestAgainst(func(req []byte) ([][]byte, error) {
					if calls++; calls > 1 {
						return nil, boom
					}
					return h(req)
				}, AttestOptions{Opts: tc.opts})
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), "core: prover: ") {
					t.Fatalf("session ended with %v, want core: prover: %v", err, boom)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the verifier still waits 10 s after the prover failed")
			}
		})
	}
}

// TestSessionsSpawnNoGoroutine: a simulated session runs the prover
// inline on the verifier's goroutine — 20 plain-mode sessions never raise
// the goroutine count above where it started, during or after, and
// neither does a window-16 reliable session over the delay link, whose
// engine waits for responses and retry deadlines on that goroutine too.
func TestSessionsSpawnNoGoroutine(t *testing.T) {
	sys, err := NewSystem(Config{Geo: device.TinyLX(), LabLatency: -1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sys.Plan(0x60, verifier.Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	peak := before
	sample := func(m []byte) []byte {
		peak = max(peak, runtime.NumGoroutine())
		return m
	}
	opts := AttestOptions{WrapVerifierChannel: func(ep channel.Endpoint) channel.Endpoint {
		return &channel.Tap{Inner: ep, OnSend: sample, OnRecv: sample}
	}}
	for i := 0; i < 20; i++ {
		rep, err := sys.AttestWithPlan(plan, opts)
		if err != nil || !rep.Accepted {
			t.Fatalf("session %d: accepted=%v err=%v", i, rep != nil && rep.Accepted, err)
		}
	}
	if after := runtime.NumGoroutine(); peak > before || after != before {
		t.Fatalf("goroutines: %d before, peak %d during, %d after 20 sessions; want no change", before, peak, after)
	}

	delayed := AttestOptions{
		Opts: verifier.Options{Retry: attestation.RetryPolicy{Timeout: time.Second, MaxRetries: 3, Window: 16}},
		WrapVerifierChannel: func(ep channel.Endpoint) channel.Endpoint {
			return &channel.Tap{Inner: channel.NewDelayEndpoint(ep, 200*time.Microsecond), OnSend: sample, OnRecv: sample}
		},
	}
	rep, err := sys.AttestWithPlan(plan, delayed)
	if err != nil || !rep.Accepted {
		t.Fatalf("window-16 session over the delay link: accepted=%v err=%v", rep != nil && rep.Accepted, err)
	}
	if after := runtime.NumGoroutine(); peak > before || after != before {
		t.Fatalf("goroutines: %d before, peak %d during, %d after the delayed session; want no change", before, peak, after)
	}
}

// recvOnly hides every method but the Endpoint ones, as a caller's
// wrapper (a tracer, say) does.
type recvOnly struct{ channel.Endpoint }

// TestRecvOnlyWrapperOverDelayLink: a reliable session over a Recv-only
// wrapper around the delay link gets its deadline receive from
// channel.WithRecvUntil's adapter. At window 16 it ends in the same H_Vrf
// as window 1, and the adapter's goroutine is gone once the link is
// closed.
func TestRecvOnlyWrapperOverDelayLink(t *testing.T) {
	sys, err := NewSystem(Config{Geo: device.TinyLX(), LabLatency: -1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sys.Plan(0x60, verifier.Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	run := func(window int) *attestation.Report {
		rep, err := sys.AttestWithPlan(plan, AttestOptions{
			Opts: verifier.Options{Retry: attestation.RetryPolicy{Timeout: time.Second, MaxRetries: 3, Window: window}},
			WrapVerifierChannel: func(ep channel.Endpoint) channel.Endpoint {
				return recvOnly{channel.NewDelayEndpoint(ep, 200*time.Microsecond)}
			},
		})
		if err != nil || !rep.Accepted {
			t.Fatalf("window %d: accepted=%v err=%v", window, rep != nil && rep.Accepted, err)
		}
		return rep
	}
	lockstep, windowed := run(1), run(16)
	if windowed.HVrf != lockstep.HVrf || windowed.Retries != 0 {
		t.Fatalf("window 16: H_Vrf %x with %d retries, window 1: %x", windowed.HVrf, windowed.Retries, lockstep.HVrf)
	}
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 500 {
			t.Fatalf("goroutines: %d before, %d after the closed sessions", before, runtime.NumGoroutine())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

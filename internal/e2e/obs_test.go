// End-to-end checks of the observability layer: the per-phase wall-time
// breakdown must account for the whole run, and a completed attestation
// must be visible in the process-wide metric families exactly as the
// /metrics endpoint would expose them.
package e2e

import (
	"strings"
	"testing"

	"sacha/internal/attestation"
	"sacha/internal/channel"
	"sacha/internal/obs"
	"sacha/internal/obs/span"
	"sacha/internal/verifier"
)

// TestPhaseBreakdownAccountsForElapsed runs full attestations (lockstep
// and windowed) and checks the contract documented on Report: the four
// phase durations are measured at contiguous checkpoints, so their sum
// equals Elapsed.
func TestPhaseBreakdownAccountsForElapsed(t *testing.T) {
	for _, window := range []int{1, 8} {
		r := newRig(t)
		ep := r.serveSim(t, channel.FaultConfig{})
		opts := verifier.Options{Retry: retryPolicy()}
		opts.Retry.Window = window
		rep, err := r.vrf.Attest(ep, r.golden, r.dyn, opts)
		if err != nil {
			t.Fatalf("window %d: attest: %v", window, err)
		}
		if !rep.Accepted {
			t.Fatalf("window %d: clean run rejected", window)
		}
		ph := rep.Phases
		if ph.Config <= 0 || ph.Readback <= 0 || ph.Checksum <= 0 || ph.Verdict < 0 {
			t.Errorf("window %d: non-positive phase in %+v", window, ph)
		}
		if rep.Elapsed <= 0 {
			t.Errorf("window %d: Elapsed = %v", window, rep.Elapsed)
		}
		if ph.Sum() != rep.Elapsed {
			t.Errorf("window %d: phases sum to %v, Elapsed is %v (contiguous checkpoints must telescope)",
				window, ph.Sum(), rep.Elapsed)
		}
	}
}

// TestRunPopulatesMetricFamilies scrapes the Default registry after a
// successful run and checks the core families a /metrics consumer
// depends on: per-phase histograms and the verdict counter.
func TestRunPopulatesMetricFamilies(t *testing.T) {
	r := newRig(t)
	ep := r.serveSim(t, channel.FaultConfig{})
	rep, err := r.vrf.Attest(ep, r.golden, r.dyn, verifier.Options{Retry: retryPolicy()})
	if err != nil {
		t.Fatalf("attest: %v", err)
	}
	if !rep.Accepted {
		t.Fatal("clean run rejected")
	}

	var b strings.Builder
	if err := obs.Default().WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := b.String()
	for _, want := range []string{
		`sacha_attest_phase_seconds_count{phase="config"}`,
		`sacha_attest_phase_seconds_count{phase="readback"}`,
		`sacha_attest_phase_seconds_count{phase="checksum"}`,
		`sacha_attest_phase_seconds_count{phase="verdict"}`,
		`sacha_attest_runs_total{verdict="accepted"}`,
		"sacha_attest_frames_read_total",
		"sacha_attest_run_seconds_count",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %s", want)
		}
	}
}

// TestSpanKindsSeeWholeRun records a run over the reliable transport on
// a session span and checks the span's per-kind aggregates count every
// configured and read-back frame.
func TestSpanKindsSeeWholeRun(t *testing.T) {
	r := newRig(t)
	ep := r.serveSim(t, channel.FaultConfig{})
	sp := span.NewCollector(1).StartTrace(1, "attestation")
	rep, err := r.vrf.Attest(ep, r.golden, r.dyn, verifier.Options{Retry: retryPolicy(), Span: sp})
	if err != nil {
		t.Fatalf("attest: %v", err)
	}
	kinds := sp.Kinds()
	if got := kinds[attestation.StepReadback].Count; got != rep.FramesRead {
		t.Errorf("span counted %d readbacks, report says %d", got, rep.FramesRead)
	}
	if got := kinds[attestation.StepConfig].Count; got != rep.FramesConfigured {
		t.Errorf("span counted %d config steps, report says %d", got, rep.FramesConfigured)
	}
}

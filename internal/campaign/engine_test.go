package campaign

import (
	"context"
	"fmt"
	"testing"

	"sacha/internal/fleet"
	"sacha/internal/verifier"
)

// runCampaign executes one event-bounded campaign and returns its report.
func runCampaign(t *testing.T, sc Scenario) *Report {
	t.Helper()
	eng, err := New(sc)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := eng.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep
}

// TestCampaignInvariantsHold is the package's main end-to-end assertion:
// a seeded mixed-geometry campaign that draws every event kind completes
// with zero invariant violations, and its verdict matrix contains no
// forbidden cell.
func TestCampaignInvariantsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-sweep campaign in -short mode")
	}
	rep := runCampaign(t, Scenario{Seed: 7, Fleet: 8, MaxEvents: 12})
	if !rep.OK() {
		t.Fatalf("invariant violations:\n%s", rep.Summary())
	}
	if rep.Events != 12 {
		t.Fatalf("events = %d, want 12", rep.Events)
	}
	if rep.Sweeps == 0 {
		t.Fatalf("campaign never swept: %s", rep.Summary())
	}
	// No forbidden matrix cells, independent of the violation ledger.
	forbidden := []struct{ exp, verdict string }{
		{ExpectClean, "compromised"},
		{ExpectClean, "unreachable"},
		{ExpectClean, "failed"},
		{ExpectTampered, "healthy"},
		{ExpectTampered, "unreachable"},
		{ExpectFaulted, "compromised"},
		{ExpectTamperedFaulted, "healthy"},
		{ExpectInterrupted, "compromised"},
		{ExpectInterrupted, "failed"},
	}
	for _, f := range forbidden {
		if n := rep.Matrix[f.exp][f.verdict]; n != 0 {
			t.Errorf("matrix[%s][%s] = %d, want 0", f.exp, f.verdict, n)
		}
	}
	for name, tally := range rep.Adversaries {
		if tally.Detected != tally.Runs {
			t.Errorf("adversary %s: %d/%d detected", name, tally.Detected, tally.Runs)
		}
	}
	if rep.HeapPeakBytes == 0 {
		t.Error("heap was never sampled")
	}
	if rep.EventHash == "" || len(rep.EventLog) != rep.Events {
		t.Errorf("event log incomplete: %d lines, hash %q", len(rep.EventLog), rep.EventHash)
	}
}

// TestCampaignReproducible reruns one seed and requires the identical
// event sequence and verdict matrix — the acceptance bar of the soak
// harness.
func TestCampaignReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("double campaign in -short mode")
	}
	sc := Scenario{Seed: 21, Fleet: 6, MaxEvents: 8}
	a := runCampaign(t, sc)
	b := runCampaign(t, sc)
	if a.EventHash != b.EventHash {
		t.Fatalf("event sequences diverged:\n%v\n%v", a.EventLog, b.EventLog)
	}
	if fmt.Sprint(a.Matrix) != fmt.Sprint(b.Matrix) {
		t.Fatalf("verdict matrices diverged:\n%v\n%v", a.Matrix, b.Matrix)
	}
	if fmt.Sprint(a.SEU) != fmt.Sprint(b.SEU) {
		t.Fatalf("SEU tallies diverged: %+v vs %+v", a.SEU, b.SEU)
	}
	if len(a.Violations) != 0 || len(b.Violations) != 0 {
		t.Fatalf("violations: %v / %v", a.Violations, b.Violations)
	}
}

// TestCampaignDetectsHeapViolation drives the bounded-memory invariant
// through the real sampling path with an impossible ceiling: the
// campaign must complete (a violation is a finding, not a crash) and
// report it.
func TestCampaignDetectsHeapViolation(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign in -short mode")
	}
	rep := runCampaign(t, Scenario{Seed: 3, Fleet: 2, MaxEvents: 2, HeapCeilingMB: 1})
	if rep.OK() {
		t.Fatalf("1 MiB ceiling not reported as violated:\n%s", rep.Summary())
	}
	found := false
	for _, v := range rep.Violations {
		if v.Detail != "" && v.Event >= 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no attributable violation recorded: %+v", rep.Violations)
	}
}

func TestEngineSingleUse(t *testing.T) {
	eng, err := New(Scenario{Seed: 1, Fleet: 2, MaxEvents: 1, Weights: Weights{SEU: 1}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatalf("first Run: %v", err)
	}
	if _, err := eng.Run(context.Background()); err == nil {
		t.Fatal("second Run accepted")
	}
}

func TestNewRejectsInvalidScenario(t *testing.T) {
	if _, err := New(Scenario{}); err == nil {
		t.Fatal("unbounded scenario accepted")
	}
}

// TestClassify pins the zero-false-verdicts expectation table.
func TestClassify(t *testing.T) {
	var e Engine
	healthy := fleet.DeviceResult{DeviceID: 1, Report: &verifier.Report{Accepted: true}}
	compromised := fleet.DeviceResult{DeviceID: 1, Report: &verifier.Report{}}
	unreachable := fleet.DeviceResult{DeviceID: 1, Err: &verifier.TransportError{Op: "x", Attempts: 1, Err: context.DeadlineExceeded}}
	faulted := map[uint64]DeviceFault{1: {Device: 1}}
	none := map[uint64]DeviceFault{}

	cases := []struct {
		name     string
		tampered bool
		faults   map[uint64]DeviceFault
		res      fleet.DeviceResult
		wantExp  string
		wantOK   bool
	}{
		{"clean-healthy", false, none, healthy, ExpectClean, true},
		{"clean-compromised", false, none, compromised, ExpectClean, false},
		{"clean-unreachable", false, none, unreachable, ExpectClean, false},
		{"tampered-compromised", true, none, compromised, ExpectTampered, true},
		{"tampered-healthy", true, none, healthy, ExpectTampered, false},
		{"tampered-unreachable", true, none, unreachable, ExpectTampered, false},
		{"faulted-healthy", false, faulted, healthy, ExpectFaulted, true},
		{"faulted-unreachable", false, faulted, unreachable, ExpectFaulted, true},
		{"faulted-compromised", false, faulted, compromised, ExpectFaulted, false},
		{"both-compromised", true, faulted, compromised, ExpectTamperedFaulted, true},
		{"both-unreachable", true, faulted, unreachable, ExpectTamperedFaulted, true},
		{"both-healthy", true, faulted, healthy, ExpectTamperedFaulted, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			exp, ok := e.classify(tc.tampered, tc.faults, tc.res)
			if exp != tc.wantExp || ok != tc.wantOK {
				t.Fatalf("classify = (%s, %t), want (%s, %t)", exp, ok, tc.wantExp, tc.wantOK)
			}
		})
	}
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sacha/internal/attestation"
	"sacha/internal/obs/span"
)

// TestPaperOutputsGolden pins the exact stdout of the paper-facing
// renderings — Fig. 8, Fig. 9, the live Table 3 and the analytic Tables
// 3 and 4 — byte for byte against testdata/*.golden. Every run is
// seeded, so the outputs are deterministic; any refactor of the
// protocol trace, the event record or the renderers must leave them
// unchanged.
func TestPaperOutputsGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"fig8", []string{"-fig", "8"}},
		{"fig9", []string{"-fig", "9"}},
		{"table3-live", []string{"-table3-live"}},
		{"table3", []string{"-table", "3"}},
		{"table4", []string{"-table", "4"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(tc.args, &out); err != nil {
				t.Fatalf("sacha-tables %s: %v", strings.Join(tc.args, " "), err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("sacha-tables %s drifted from testdata/%s.golden:\n--- got ---\n%s--- want ---\n%s",
					strings.Join(tc.args, " "), tc.golden, out.Bytes(), want)
			}
		})
	}
}

// TestStepTableAggregates checks the Table 3-style step report on a
// hand-built span: one row per step kind with count, total, mean and
// max, sorted by descending total, a grand-total row, and non-step
// events (the verdict milestone) left out.
func TestStepTableAggregates(t *testing.T) {
	col := span.NewCollector(4)
	sp := col.StartTrace(span.NewTraceID(1), "session")
	sp.Event(attestation.StepReadback, 0, 3*time.Microsecond, "")
	sp.Event(attestation.StepReadback, 1, 5*time.Microsecond, "")
	sp.Event(attestation.StepConfig, 0, 2*time.Microsecond, "")
	sp.Event("verdict", -1, time.Microsecond, "verdict: ok")
	sp.End()

	var b strings.Builder
	if err := writeStepTable(&b, sp); err != nil {
		t.Fatalf("writeStepTable: %v", err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Header, two step kinds, grand total.
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), out)
	}
	// Readback dominates (8 µs > 2 µs) so it sorts first.
	if f := strings.Fields(lines[1]); len(f) != 5 || f[0] != attestation.StepReadback ||
		f[1] != "2" || f[2] != "8µs" || f[3] != "4µs" || f[4] != "5µs" {
		t.Errorf("readback row = %q, want count 2, total 8µs, mean 4µs, max 5µs", lines[1])
	}
	if f := strings.Fields(lines[2]); len(f) != 5 || f[0] != attestation.StepConfig ||
		f[1] != "1" || f[2] != "2µs" || f[4] != "2µs" {
		t.Errorf("config row = %q, want count 1, total 2µs, max 2µs", lines[2])
	}
	// The verdict's 1 µs is not a protocol step and stays out of the total.
	if f := strings.Fields(lines[3]); len(f) != 2 || f[0] != "total" || f[1] != "10µs" {
		t.Errorf("grand total row = %q, want total 10µs", lines[3])
	}
}

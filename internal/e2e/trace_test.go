// End-to-end checks of the causal tracing layer: a tampered fleetd
// sweep must leave exactly one flight-recorder artifact whose span tree
// carries the full causal chain (sweep → session → phases → events)
// with phase durations that sum to the session report's Elapsed
// exactly, and the Perfetto canonical export of a pinned-NonceSeed
// sweep must be byte-identical across two independently provisioned
// twin fleets.
package e2e

import (
	"bytes"
	"encoding/json"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sacha/internal/attestation"
	"sacha/internal/core"
	"sacha/internal/fleet"
	"sacha/internal/fleet/dispatch"
	"sacha/internal/fleet/fleetd"
	"sacha/internal/fleet/registry"
	"sacha/internal/obs"
	"sacha/internal/obs/span"
	"sacha/internal/prover"
)

// TestFlightRecorderOnTamperedSweep tampers one member of a fleetd
// fleet, sweeps once through the control API, and asserts the flight
// recorder captured exactly one post-mortem: the compromised session's
// span tree with its four phase children telescoping to Report.Elapsed,
// served over /fleet/flightrecords and /debug/trace alongside.
func TestFlightRecorderOnTamperedSweep(t *testing.T) {
	const size = 8
	const bad = 3
	reg, err := registry.New(size, fleetdFactory)
	if err != nil {
		t.Fatal(err)
	}
	tamperOpts := func(id uint64) core.AttestOptions {
		if id != bad {
			return core.AttestOptions{}
		}
		sys, _ := reg.System(id)
		return core.AttestOptions{TamperDevice: func(d *prover.Device) {
			d.Fabric.Mem.Frame(sys.DynFrames()[1])[2] ^= 4
		}}
	}

	dir := t.TempDir()
	col := span.NewCollector(0)
	rec, err := span.NewRecorder(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	seed := uint64(0x5EED)
	daemon := fleetd.New(fleetd.Config{
		Registry:   reg,
		Dispatcher: dispatch.New(dispatch.Config{Shards: 2, PlanCacheSize: 4}),
		Template: fleet.SweepConfig{
			Concurrency: 4,
			Freshness:   attestation.PerDevice,
			NonceSeed:   &seed,
			Spans:       col,
			Flight:      rec,
		},
		Opts: tamperOpts,
	})
	srv, addr, err := obs.Serve("127.0.0.1:0", nil, daemon.Tracker(), daemon.Routes()...)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + addr.String()

	body := bytes.NewBufferString(`{"wait": true}`)
	resp, err := http.Post(base+"/fleet/sweep", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	var swept fleetd.SweepRecord
	if err := json.NewDecoder(resp.Body).Decode(&swept); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if swept.Healthy != size-1 || swept.Compromised != 1 {
		t.Fatalf("sweep verdicts: %+v", swept)
	}

	// Exactly one flight record: the one compromised session.
	records := rec.Records()
	if len(records) != 1 {
		t.Fatalf("flight recorder holds %d records, want exactly 1", len(records))
	}
	r := records[0]
	if r.Kind != "verdict" || r.Device != bad || r.Verdict != obs.VerdictCompromised {
		t.Fatalf("flight record = kind=%s device=%d verdict=%s", r.Kind, r.Device, r.Verdict)
	}
	if r.Trace != span.NewTraceID(seed).String() {
		t.Fatalf("flight record trace %s, want %s (derived from the pinned NonceSeed)",
			r.Trace, span.NewTraceID(seed))
	}
	files, err := filepath.Glob(filepath.Join(dir, "flight-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("on-disk artifacts %v, want exactly 1", files)
	}
	// The causal chain: the record's span tree holds the session span of
	// the tampered device with shard/worker attribution, a verdict tag,
	// and four phase children whose durations telescope to exactly the
	// report's Elapsed.
	sess := span.SessionSpan(r.Spans, bad)
	if sess == nil {
		t.Fatalf("no session span for device %d in the record's tree", bad)
	}
	if sess.Tags["verdict"] != obs.VerdictCompromised {
		t.Fatalf("session verdict tag %q", sess.Tags["verdict"])
	}
	// The session's protocol record rides in the span tree: the step
	// events of every A-action and the Fig. 8 verdict line.
	steps := map[string]int{}
	verdictLine := false
	for _, e := range sess.Events {
		steps[e.Kind]++
		verdictLine = verdictLine || strings.HasPrefix(e.Note, "verdict: B_Prv == B_Vrf: false")
	}
	for _, k := range []string{attestation.StepConfig, attestation.StepReadback, attestation.StepFrameData,
		attestation.StepChecksum, attestation.StepMACValue} {
		if steps[k] == 0 {
			t.Errorf("flight record's session span carries no %s step events", k)
		}
	}
	if !verdictLine {
		t.Errorf("flight record's session span lacks the failing verdict line: %+v", sess.Events)
	}
	if sess.Tags["shard"] == "" || sess.Tags["worker"] == "" {
		t.Fatalf("session lacks dispatch attribution: %v", sess.Tags)
	}
	rep, ok := r.Report.(*attestation.Report)
	if !ok || rep == nil {
		t.Fatalf("record report is %T, want *attestation.Report", r.Report)
	}
	wantPhases := []string{"phase:config", "phase:readback", "phase:checksum", "phase:verdict"}
	var phaseSum int64
	var gotPhases []string
	for _, c := range sess.Children {
		if strings.HasPrefix(c.Name, "phase:") {
			gotPhases = append(gotPhases, c.Name)
			phaseSum += c.DurationNS
		}
	}
	if len(gotPhases) != len(wantPhases) {
		t.Fatalf("phase spans %v, want %v", gotPhases, wantPhases)
	}
	for i, name := range wantPhases {
		if gotPhases[i] != name {
			t.Fatalf("phase spans %v, want %v (contiguous protocol order)", gotPhases, wantPhases)
		}
	}
	if phaseSum != rep.Elapsed.Nanoseconds() {
		t.Fatalf("phase durations sum to %d ns, report Elapsed is %d ns — the contiguous-checkpoint invariant broke",
			phaseSum, rep.Elapsed.Nanoseconds())
	}
	if got := rep.Phases.Sum(); got != rep.Elapsed {
		t.Fatalf("PhaseBreakdown.Sum() %v != Elapsed %v", got, rep.Elapsed)
	}

	// The live endpoints serve the same truth.
	var traces struct {
		Traces []span.SpanSnapshot `json:"traces"`
	}
	getJSON(t, base+"/debug/trace?device=3&verdict=compromised", &traces)
	if len(traces.Traces) != 1 || span.SessionSpan(traces.Traces, bad) == nil {
		t.Fatalf("/debug/trace filter returned %d traces", len(traces.Traces))
	}
	var flights struct {
		Records []span.Record `json:"records"`
		Dir     string        `json:"dir"`
	}
	getJSON(t, base+"/fleet/flightrecords", &flights)
	if len(flights.Records) != 1 || flights.Records[0].Device != bad || flights.Dir != dir {
		t.Fatalf("/fleet/flightrecords = %d records, dir %q", len(flights.Records), flights.Dir)
	}
	resp, err = http.Get(base + "/debug/trace/perfetto?canonical=1")
	if err != nil {
		t.Fatal(err)
	}
	var pf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pf); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(pf.TraceEvents) == 0 {
		t.Fatal("perfetto export is empty")
	}
}

// TestPerfettoExportDeterminism provisions twin fleets from the same
// seeds, sweeps both under a pinned NonceSeed with one worker, and
// requires the canonical Perfetto exports to be byte-identical — the
// replayable-post-mortem contract of the deterministic ID derivation.
func TestPerfettoExportDeterminism(t *testing.T) {
	seed := uint64(42)
	export := func() []byte {
		reg, err := registry.New(6, fleetdFactory)
		if err != nil {
			t.Fatal(err)
		}
		col := span.NewCollector(0)
		d := dispatch.New(dispatch.Config{Shards: 2})
		_, err = d.Sweep(t.Context(), reg, fleet.SweepConfig{
			// One worker: steal order, worker attribution and verdict
			// tags are then pure functions of the membership, which is
			// what lets the whole export be compared byte for byte.
			Concurrency: 1,
			Freshness:   attestation.PerDevice,
			NonceSeed:   &seed,
			Spans:       col,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := span.WritePerfetto(&buf, col.Snapshot(span.Filter{}), span.PerfettoOptions{Canonical: true}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := export()
	time.Sleep(2 * time.Millisecond) // make wall-clock leakage visible
	b := export()
	if !bytes.Equal(a, b) {
		t.Fatalf("canonical Perfetto exports differ across twin sweeps:\n--- a ---\n%.2000s\n--- b ---\n%.2000s", a, b)
	}
}

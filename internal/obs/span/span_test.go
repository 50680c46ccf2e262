package span

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sacha/internal/obs"
)

// TestDeterministicIDs pins the ID derivation: pure functions of their
// inputs, domain-separated from the per-device nonce derivation that
// shares the same base.
func TestDeterministicIDs(t *testing.T) {
	const base = 0xDEADBEEF12345678
	if NewTraceID(base) != NewTraceID(base) {
		t.Fatal("NewTraceID is not a pure function")
	}
	if NewTraceID(base) == NewTraceID(base+1) {
		t.Fatal("distinct bases collide")
	}
	tr := NewTraceID(base)
	if SessionSpanID(tr, 3) != SessionSpanID(tr, 3) {
		t.Fatal("SessionSpanID is not a pure function")
	}
	if SessionSpanID(tr, 3) == SessionSpanID(tr, 4) {
		t.Fatal("distinct devices collide")
	}
	// The salt domain-separates the trace ID from DeviceNonce(base, id):
	// both run the same mix, so without the salt NewTraceID(base) would
	// equal DeviceNonce(base, 0).
	deviceNonce0 := mix(base) // fleet.DeviceNonce(base, 0)
	if uint64(NewTraceID(base)) == deviceNonce0 {
		t.Fatal("trace ID collides with device nonce 0")
	}
	if childSpanID(SpanID(tr), 0) == childSpanID(SpanID(tr), 1) {
		t.Fatal("sibling children collide")
	}
}

// TestCollectorTreeAndFilters builds a small sweep-shaped trace and
// checks the snapshot tree, the deterministic ordering and each filter.
func TestCollectorTreeAndFilters(t *testing.T) {
	col := NewCollector(64)
	tr := NewTraceID(7)
	root := col.StartTrace(tr, "sweep")
	for dev := uint64(1); dev <= 3; dev++ {
		sp := root.DeviceChild(fmt.Sprintf("session device-%d", dev), dev)
		sp.SetTag("verdict", map[uint64]string{1: "healthy", 2: "compromised", 3: "healthy"}[dev])
		now := time.Now()
		sp.ChildSpanAt("phase:config", now.Add(-4*time.Millisecond), now.Add(-3*time.Millisecond))
		sp.ChildSpanAt("phase:readback", now.Add(-3*time.Millisecond), now)
		sp.Event("hello", -1, 0, "want=0x3 granted=0x3")
		sp.End()
	}
	root.End()

	roots := col.Snapshot(Filter{})
	if len(roots) != 1 {
		t.Fatalf("got %d roots, want 1", len(roots))
	}
	if got := len(roots[0].Children); got != 3 {
		t.Fatalf("root has %d sessions, want 3", got)
	}
	for i, c := range roots[0].Children {
		if c.Device != uint64(i)+1 {
			t.Fatalf("session %d has device %d; sessions not ordered by device", i, c.Device)
		}
		if len(c.Children) != 2 {
			t.Fatalf("session %d has %d phases, want 2", i, len(c.Children))
		}
		if c.Children[0].Name != "phase:config" || c.Children[1].Name != "phase:readback" {
			t.Fatalf("phases out of creation order: %s, %s", c.Children[0].Name, c.Children[1].Name)
		}
	}

	byDev := col.Snapshot(Filter{Device: 2})
	if len(byDev) != 1 || len(byDev[0].Children) != 1 || byDev[0].Children[0].Device != 2 {
		t.Fatalf("device filter kept the wrong sessions: %+v", byDev)
	}
	if len(byDev[0].Children[0].Children) != 2 {
		t.Fatal("device filter pruned the selected session's subtree")
	}

	byVerdict := col.Snapshot(Filter{Verdict: "compromised"})
	if len(byVerdict) != 1 || len(byVerdict[0].Children) != 1 || byVerdict[0].Children[0].Device != 2 {
		t.Fatalf("verdict filter kept the wrong sessions: %+v", byVerdict)
	}

	if got := col.Snapshot(Filter{Trace: NewTraceID(8)}); len(got) != 0 {
		t.Fatalf("foreign-trace filter returned %d roots, want 0", len(got))
	}
	if got := col.Snapshot(Filter{MinDuration: time.Hour}); len(got) != 0 {
		t.Fatalf("min-duration filter returned %d roots, want 0", len(got))
	}

	if s := SessionSpan(roots, 3); s == nil || s.Device != 3 {
		t.Fatalf("SessionSpan(3) = %+v", s)
	}
	if s := SessionSpan(roots, 9); s != nil {
		t.Fatalf("SessionSpan(9) found a phantom session: %+v", s)
	}
}

// TestCollectorRingEviction bounds the finished-span retention.
func TestCollectorRingEviction(t *testing.T) {
	col := NewCollector(4)
	tr := NewTraceID(1)
	root := col.StartTrace(tr, "sweep")
	for dev := uint64(1); dev <= 6; dev++ {
		sp := root.DeviceChild("session", dev)
		sp.End()
	}
	if got := col.Dropped(); got != 2 {
		t.Fatalf("Dropped() = %d, want 2", got)
	}
	// 4 retained sessions + the still-open root.
	var count func([]SpanSnapshot) int
	count = func(ss []SpanSnapshot) int {
		n := len(ss)
		for i := range ss {
			n += count(ss[i].Children)
		}
		return n
	}
	if got := count(col.Snapshot(Filter{})); got != 5 {
		t.Fatalf("snapshot holds %d spans, want 5 (4 retained + open root)", got)
	}
}

// TestOpenSpansVisible checks a mid-sweep snapshot shows the open root
// above finished sessions.
func TestOpenSpansVisible(t *testing.T) {
	col := NewCollector(16)
	root := col.StartTrace(NewTraceID(2), "sweep")
	sp := root.DeviceChild("session", 1)
	sp.End()
	roots := col.Snapshot(Filter{})
	if len(roots) != 1 || !roots[0].Open {
		t.Fatalf("open root missing from snapshot: %+v", roots)
	}
	if len(roots[0].Children) != 1 || roots[0].Children[0].Open {
		t.Fatalf("finished session wrong: %+v", roots[0].Children)
	}
}

// TestEventKindAggregates checks the per-kind aggregates: count, total
// and max of the virtual durations, per kind, alongside the retained
// events in recording order.
func TestEventKindAggregates(t *testing.T) {
	col := NewCollector(16)
	sp := col.StartTrace(NewTraceID(3), "session")
	sp.Event("ICAP_readback", 0, 3*time.Microsecond, "")
	sp.Event("ICAP_config", 5, 2*time.Microsecond, "frame 5")
	sp.Event("ICAP_readback", 1, 5*time.Microsecond, "")
	sp.Event("verdict", -1, 0, "verdict: ok")
	sp.End()

	kinds := sp.Kinds()
	want := map[string]KindStat{
		"ICAP_readback": {Count: 2, Total: 8 * time.Microsecond, Max: 5 * time.Microsecond},
		"ICAP_config":   {Count: 1, Total: 2 * time.Microsecond, Max: 2 * time.Microsecond},
		"verdict":       {Count: 1},
	}
	if len(kinds) != len(want) {
		t.Fatalf("Kinds() = %+v, want %+v", kinds, want)
	}
	for k, w := range want {
		if kinds[k] != w {
			t.Errorf("Kinds()[%s] = %+v, want %+v", k, kinds[k], w)
		}
	}
	events := sp.Events()
	if len(events) != 4 || events[1].Kind != "ICAP_config" || events[1].Frame != 5 ||
		events[1].VirtualNS != 2000 || events[3].Note != "verdict: ok" {
		t.Fatalf("Events() = %+v", events)
	}
	roots := col.Snapshot(Filter{})
	if len(roots) != 1 || len(roots[0].Events) != 4 {
		t.Fatalf("snapshot events = %+v, want the four recorded", roots)
	}
}

// TestEventRetentionCap checks the retention bound: past kindEventCap
// events of one kind the span stops retaining that kind, the aggregates
// keep growing, and events of other kinds — the one-off milestones
// after a long step stream — are still retained.
func TestEventRetentionCap(t *testing.T) {
	col := NewCollector(16)
	sp := col.StartTrace(NewTraceID(4), "session")
	for i := 0; i < kindEventCap+100; i++ {
		sp.Event("ICAP_readback", i, time.Microsecond, "")
	}
	sp.Event("verdict", -1, 0, "verdict: ok")
	sp.End()
	if got := sp.Kinds()["ICAP_readback"]; got.Count != kindEventCap+100 ||
		got.Total != (kindEventCap+100)*time.Microsecond {
		t.Fatalf("aggregate stopped at the cap: %+v", got)
	}
	events := sp.Events()
	if len(events) != kindEventCap+1 {
		t.Fatalf("retained %d events, want %d", len(events), kindEventCap+1)
	}
	if last := events[len(events)-1]; last.Kind != "verdict" {
		t.Fatalf("milestone past the cap dropped; last event %+v", last)
	}
	if events[kindEventCap-1].Frame != kindEventCap-1 {
		t.Fatalf("retained events are not the head of the stream: %+v", events[kindEventCap-1])
	}
}

// TestEventRecordConcurrentReaders records on a session span while
// other goroutines read its record the way the renderers and the
// /debug/trace snapshots do; run under -race it checks the aggregates
// and the retained events are guarded.
func TestEventRecordConcurrentReaders(t *testing.T) {
	col := NewCollector(16)
	sp := col.StartTrace(NewTraceID(5), "session")
	const n = 2000
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = sp.Kinds()
				_ = sp.Events()
				_ = col.Snapshot(Filter{})
			}
		}()
	}
	for i := 0; i < n; i++ {
		sp.Event("ICAP_readback", i, time.Microsecond, "")
	}
	wg.Wait()
	if got := sp.Kinds()["ICAP_readback"].Count; got != n {
		t.Fatalf("aggregate count %d, want %d", got, n)
	}
}

// TestNilSpanZeroAlloc pins the disabled-tracing contract: every span
// method on a nil receiver (the state every instrumented call site is in
// when no collector is configured) allocates nothing.
func TestNilSpanZeroAlloc(t *testing.T) {
	var sp *Span
	var col *Collector
	now := time.Now()
	if avg := testing.AllocsPerRun(200, func() {
		sp.SetTag("k", "v")
		sp.Event("kind", 1, time.Microsecond, "note")
		sp.ChildSpanAt("phase", now, now)
		_ = sp.Child("child")
		_ = sp.DeviceChild("session", 1)
		sp.End()
		_ = sp.Trace()
		_ = sp.ID()
		_ = sp.Events()
		_ = sp.Kinds()
		_ = col.StartTrace(1, "sweep")
		_ = col.Snapshot(Filter{})
		_ = col.Dropped()
	}); avg != 0 {
		t.Fatalf("nil-span operations allocate %.1f objects, want 0", avg)
	}
}

// TestPerfettoCanonicalDeterminism builds the same tree twice (distinct
// wall clocks) and requires byte-identical canonical exports.
func TestPerfettoCanonicalDeterminism(t *testing.T) {
	build := func() []SpanSnapshot {
		col := NewCollector(64)
		root := col.StartTrace(NewTraceID(42), "sweep")
		for dev := uint64(1); dev <= 2; dev++ {
			sp := root.DeviceChild(fmt.Sprintf("session device-%d", dev), dev)
			sp.SetTag("verdict", "healthy")
			now := time.Now()
			sp.ChildSpanAt("phase:config", now.Add(-time.Millisecond), now)
			sp.Event("hello", -1, 0, "want=0x3 granted=0x3")
			sp.End()
		}
		root.End()
		return col.Snapshot(Filter{})
	}
	var a, b bytes.Buffer
	if err := WritePerfetto(&a, build(), PerfettoOptions{Canonical: true}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond) // shift the wall clock between builds
	if err := WritePerfetto(&b, build(), PerfettoOptions{Canonical: true}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("canonical exports differ:\n--- a ---\n%s\n--- b ---\n%s", a.Bytes(), b.Bytes())
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &f); err != nil {
		t.Fatalf("canonical export is not valid JSON: %v", err)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("canonical export is empty")
	}
}

// TestFlightRecorderBounding checks on-disk artifact eviction, the
// in-memory ring bound and the metrics delta.
func TestFlightRecorderBounding(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	ctr := reg.Counter("flight_test_total", "test counter")
	rec, err := NewRecorder(dir, 2, reg)
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector(16)
	tr := NewTraceID(9)
	root := col.StartTrace(tr, "sweep")
	sp := root.DeviceChild("session", 4)
	sp.SetTag("verdict", "compromised")
	sp.End()
	root.End()

	for i := 0; i < 3; i++ {
		ctr.Inc()
		r := rec.RecordVerdict(col, tr, 4, "compromised", map[string]int{"i": i})
		if r.Seq != i+1 {
			t.Fatalf("record %d got seq %d", i, r.Seq)
		}
		if r.MetricsDelta["flight_test_total"] != 1 {
			t.Fatalf("record %d metrics delta = %v, want counter +1", i, r.MetricsDelta)
		}
		if len(r.Spans) == 0 || SessionSpan(r.Spans, 4) == nil {
			t.Fatalf("record %d carries no session span", i)
		}
	}
	got := rec.Records()
	if len(got) != 2 || got[0].Seq != 2 || got[1].Seq != 3 {
		t.Fatalf("retained records = %+v, want seqs 2,3", got)
	}
	files, err := filepath.Glob(filepath.Join(dir, "flight-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("on-disk artifacts = %v, want 2 (oldest evicted)", files)
	}
	// Each artifact is a self-contained Record.
	blob, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var r Record
	if err := json.Unmarshal(blob, &r); err != nil {
		t.Fatalf("artifact is not a Record: %v", err)
	}
	if r.Kind != "verdict" || r.Device != 4 {
		t.Fatalf("artifact = %+v", r)
	}
}

// TestTraceEndpoints smoke-tests the HTTP handlers: filter parsing, the
// JSON shapes and the GET-only contract.
func TestTraceEndpoints(t *testing.T) {
	col := NewCollector(16)
	root := col.StartTrace(NewTraceID(11), "sweep")
	sp := root.DeviceChild("session device-2", 2)
	sp.SetTag("verdict", "healthy")
	sp.End()
	root.End()

	rr := httptest.NewRecorder()
	Handler(col).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/trace?device=2", nil))
	if rr.Code != 200 {
		t.Fatalf("/debug/trace status %d", rr.Code)
	}
	var out struct {
		Traces  []SpanSnapshot `json:"traces"`
		Dropped uint64         `json:"dropped"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Traces) != 1 || len(out.Traces[0].Children) != 1 {
		t.Fatalf("filtered trace = %+v", out.Traces)
	}

	rr = httptest.NewRecorder()
	Handler(col).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/trace?trace=zzz", nil))
	if rr.Code != 400 {
		t.Fatalf("bad trace filter status %d, want 400", rr.Code)
	}

	rr = httptest.NewRecorder()
	Handler(col).ServeHTTP(rr, httptest.NewRequest("POST", "/debug/trace", nil))
	if rr.Code != 405 {
		t.Fatalf("POST status %d, want 405", rr.Code)
	}

	rr = httptest.NewRecorder()
	PerfettoHandler(col).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/trace/perfetto?canonical=1", nil))
	if rr.Code != 200 {
		t.Fatalf("/debug/trace/perfetto status %d", rr.Code)
	}
	var pf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &pf); err != nil {
		t.Fatal(err)
	}
	if len(pf.TraceEvents) == 0 {
		t.Fatal("perfetto export is empty")
	}

	rec, err := NewRecorder("", 4, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	rec.RecordVerdict(col, NewTraceID(11), 2, "compromised", nil)
	rr = httptest.NewRecorder()
	FlightHandler(rec).ServeHTTP(rr, httptest.NewRequest("GET", "/fleet/flightrecords", nil))
	if rr.Code != 200 {
		t.Fatalf("/fleet/flightrecords status %d", rr.Code)
	}
	var fl struct {
		Records []Record `json:"records"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &fl); err != nil {
		t.Fatal(err)
	}
	if len(fl.Records) != 1 || fl.Records[0].Device != 2 {
		t.Fatalf("flight records = %+v", fl.Records)
	}
}

package span

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sacha/internal/obs"
)

// Record is one flight-recorder artifact: a self-contained post-mortem
// of a non-Healthy verdict or a campaign invariant violation. It
// carries the full causal span tree of the trace it fired in — the
// failing session's protocol events included — the attestation Report (incl. Delta and Phases), and the metrics delta
// since the previous record — everything a post-mortem needs without
// the process that produced it.
type Record struct {
	Seq     int       `json:"seq"`
	Kind    string    `json:"kind"` // "verdict" or "invariant"
	At      time.Time `json:"at"`
	Trace   string    `json:"trace,omitempty"`
	Device  uint64    `json:"device,omitempty"`
	Verdict string    `json:"verdict,omitempty"`
	Detail  string    `json:"detail,omitempty"`
	// Report is the failing session's attestation report (typed any so
	// this package stays below internal/attestation in the import
	// graph; it marshals as the full Report JSON).
	Report any `json:"report,omitempty"`
	// Spans is the trace's full span tree at snapshot time — the sweep
	// root (still open mid-sweep), every session, phases and events.
	Spans []SpanSnapshot `json:"spans,omitempty"`
	// MetricsDelta lists every registry sample that moved since the
	// recorder's previous record (or its creation, for the first one).
	MetricsDelta map[string]float64 `json:"metrics_delta,omitempty"`
	// File is the on-disk artifact path ("" when the recorder is
	// memory-only).
	File string `json:"file,omitempty"`
}

// Recorder snapshots flight records. In-memory retention is always on
// (bounded ring, served by the /fleet/flightrecords handler); on-disk
// artifacts are written when dir is non-empty, bounded to the same
// record count by evicting the oldest file.
type Recorder struct {
	dir string
	max int
	reg *obs.Registry

	mu       sync.Mutex
	seq      int
	baseline map[string]float64
	records  []Record
	files    []string
}

// DefaultMaxRecords bounds a recorder given a non-positive maximum.
const DefaultMaxRecords = 64

// NewRecorder returns a flight recorder keeping at most maxRecords
// records (<=0 = DefaultMaxRecords), writing artifacts into dir when it
// is non-empty (created if missing), diffing metrics against reg (nil =
// the obs Default registry).
func NewRecorder(dir string, maxRecords int, reg *obs.Registry) (*Recorder, error) {
	if maxRecords <= 0 {
		maxRecords = DefaultMaxRecords
	}
	if reg == nil {
		reg = obs.Default()
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("flight recorder: %w", err)
		}
	}
	return &Recorder{dir: dir, max: maxRecords, reg: reg, baseline: reg.Snapshot()}, nil
}

// RecordVerdict snapshots a non-Healthy session verdict: the trace's
// span tree out of col (the session's protocol events included), the
// attestation report and the metrics movement. col may be nil (no span
// tree).
func (r *Recorder) RecordVerdict(col *Collector, tr TraceID, device uint64, verdict string, report any) Record {
	rec := Record{
		Kind: "verdict", At: time.Now(), Device: device, Verdict: verdict,
		Report: report,
	}
	if tr != 0 {
		rec.Trace = tr.String()
	}
	rec.Spans = col.Snapshot(Filter{Trace: tr})
	return r.commit(rec)
}

// RecordInvariant snapshots a campaign invariant violation. device may
// be 0 for fleet-wide invariants.
func (r *Recorder) RecordInvariant(col *Collector, tr TraceID, device uint64, detail string) Record {
	rec := Record{Kind: "invariant", At: time.Now(), Device: device, Detail: detail}
	if tr != 0 {
		rec.Trace = tr.String()
	}
	rec.Spans = col.Snapshot(Filter{Trace: tr})
	return r.commit(rec)
}

// commit assigns the sequence number, diffs metrics, persists and
// retains the record.
func (r *Recorder) commit(rec Record) Record {
	if r == nil {
		return rec
	}
	now := r.reg.Snapshot()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	rec.Seq = r.seq
	delta := make(map[string]float64)
	for k, v := range now {
		if v != r.baseline[k] {
			delta[k] = v - r.baseline[k]
		}
	}
	if len(delta) > 0 {
		rec.MetricsDelta = delta
	}
	r.baseline = now
	if r.dir != "" {
		name := fmt.Sprintf("flight-%06d-%s", rec.Seq, rec.Kind)
		if rec.Device != 0 {
			name += fmt.Sprintf("-device%d", rec.Device)
		}
		path := filepath.Join(r.dir, name+".json")
		if blob, err := json.MarshalIndent(rec, "", "  "); err == nil {
			if err := os.WriteFile(path, blob, 0o644); err == nil {
				rec.File = path
				r.files = append(r.files, path)
				for len(r.files) > r.max {
					os.Remove(r.files[0])
					r.files = r.files[1:]
				}
			} else {
				obs.Logger().Warn("flight record write failed", "path", path, "err", err)
			}
		}
	}
	r.records = append(r.records, rec)
	if len(r.records) > r.max {
		r.records = r.records[len(r.records)-r.max:]
	}
	obs.Logger().Info("flight record", "seq", rec.Seq, "kind", rec.Kind,
		"device", rec.Device, "verdict", rec.Verdict, "file", rec.File)
	return rec
}

// Records returns the retained records, oldest first.
func (r *Recorder) Records() []Record {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Record, len(r.records))
	copy(out, r.records)
	return out
}

// Dir returns the artifact directory ("" when memory-only).
func (r *Recorder) Dir() string {
	if r == nil {
		return ""
	}
	return r.dir
}

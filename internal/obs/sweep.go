package obs

import (
	"sync"
	"time"
)

// Sweep verdict names, shared by the tracker, the fleet report
// aggregation and the /debug/sweep JSON snapshot.
const (
	VerdictHealthy     = "healthy"
	VerdictCompromised = "compromised"
	VerdictUnreachable = "unreachable"
	VerdictFailed      = "failed"
)

// Target states of a tracked sweep.
const (
	StatePending = "pending"
	StateRunning = "running"
	StateDone    = "done"
)

// SweepTarget names one sweep member at Begin time. Class groups
// targets for the per-class tallies of the snapshot (empty = untracked).
type SweepTarget struct {
	Name  string
	Class string
}

// SweepOutcome is the terminal record of one target.
type SweepOutcome struct {
	Verdict         string // VerdictHealthy, ... (empty = failed)
	Retries         int
	TransportFaults int
	Elapsed         time.Duration
	Err             string
	// Shard is the dispatcher shard whose plan served the target and
	// Worker the pool worker that ran the session — the attribution the
	// /debug/sweep snapshot exposes per device. Single-engine sweeps
	// report shard 0.
	Shard  int
	Worker int
	// Delta outcome of the session, filled when the sweep ran in delta
	// mode: DeltaApplied reports the rewrite-only path ran,
	// DeltaFallback names the reason it did not ("capability", "cold"
	// or "mismatch"), FramesRewritten counts the frames the applied delta
	// actually rewrote.
	DeltaApplied    bool
	DeltaFallback   string
	FramesRewritten int
}

// SweepTracker tracks one fleet sweep live: which targets are pending,
// running and done, with per-target verdicts and transport pressure.
// The verifier CLI serves its Snapshot as the /debug/sweep endpoint;
// dispatch.Dispatcher.Sweep feeds it when SweepConfig.Tracker is set.
// Begin resets the tracker, so one tracker follows consecutive sweeps.
type SweepTracker struct {
	mu        sync.Mutex
	startedAt time.Time
	order     []string
	targets   map[string]*targetState
}

type targetState struct {
	class   string
	state   string
	outcome SweepOutcome
}

// NewSweepTracker returns an empty tracker.
func NewSweepTracker() *SweepTracker {
	return &SweepTracker{targets: make(map[string]*targetState)}
}

// Begin resets the tracker for a new sweep over the given targets.
func (t *SweepTracker) Begin(targets []SweepTarget) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.startedAt = time.Now()
	t.order = t.order[:0]
	t.targets = make(map[string]*targetState, len(targets))
	for _, tg := range targets {
		t.order = append(t.order, tg.Name)
		t.targets[tg.Name] = &targetState{class: tg.Class, state: StatePending}
	}
}

// Start marks a target as running.
func (t *SweepTracker) Start(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.targets[name]; ok {
		s.state = StateRunning
	}
}

// Done records a target's terminal outcome.
func (t *SweepTracker) Done(name string, out SweepOutcome) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.targets[name]
	if !ok {
		return
	}
	if out.Verdict == "" {
		out.Verdict = VerdictFailed
	}
	s.state = StateDone
	s.outcome = out
}

// TargetSnapshot is one target's row in a SweepSnapshot. The field
// order is part of the endpoint's contract (asserted by a golden test):
// encoding/json emits struct fields in declaration order, so appending
// is safe and reordering is a breaking change. Shard and Worker carry
// the dispatch attribution of done targets; both are -1 while the
// target is pending or running.
type TargetSnapshot struct {
	Target          string `json:"target"`
	Class           string `json:"class,omitempty"`
	State           string `json:"state"`
	Shard           int    `json:"shard"`
	Worker          int    `json:"worker"`
	Verdict         string `json:"verdict,omitempty"`
	Retries         int    `json:"retries,omitempty"`
	TransportFaults int    `json:"transport_faults,omitempty"`
	ElapsedNS       int64  `json:"elapsed_ns,omitempty"`
	Err             string `json:"err,omitempty"`
	DeltaApplied    bool   `json:"delta_applied,omitempty"`
	DeltaFallback   string `json:"delta_fallback,omitempty"`
	FramesRewritten int    `json:"frames_rewritten,omitempty"`
}

// SweepSnapshot is the JSON shape of /debug/sweep: live progress
// (in-flight / completed), fleet verdict tallies, per-class health and
// the transport-pressure rollup, plus the per-target rows.
type SweepSnapshot struct {
	StartedAt       time.Time                 `json:"started_at"`
	ElapsedNS       int64                     `json:"elapsed_ns"`
	Total           int                       `json:"total"`
	InFlight        int                       `json:"in_flight"`
	Completed       int                       `json:"completed"`
	Verdicts        map[string]int            `json:"verdicts"`
	PerClass        map[string]map[string]int `json:"per_class,omitempty"`
	Retries         int                       `json:"retries"`
	TransportFaults int                       `json:"transport_faults"`
	Targets         []TargetSnapshot          `json:"targets"`
}

// Snapshot returns a consistent copy of the sweep state.
func (t *SweepTracker) Snapshot() SweepSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	snap := SweepSnapshot{
		StartedAt: t.startedAt,
		Total:     len(t.order),
		Verdicts:  make(map[string]int),
		Targets:   make([]TargetSnapshot, 0, len(t.order)),
	}
	if !t.startedAt.IsZero() {
		snap.ElapsedNS = time.Since(t.startedAt).Nanoseconds()
	}
	for _, name := range t.order {
		s := t.targets[name]
		row := TargetSnapshot{Target: name, Class: s.class, State: s.state, Shard: -1, Worker: -1}
		switch s.state {
		case StateRunning:
			snap.InFlight++
		case StateDone:
			snap.Completed++
			row.Shard = s.outcome.Shard
			row.Worker = s.outcome.Worker
			row.Verdict = s.outcome.Verdict
			row.Retries = s.outcome.Retries
			row.TransportFaults = s.outcome.TransportFaults
			row.ElapsedNS = s.outcome.Elapsed.Nanoseconds()
			row.Err = s.outcome.Err
			row.DeltaApplied = s.outcome.DeltaApplied
			row.DeltaFallback = s.outcome.DeltaFallback
			row.FramesRewritten = s.outcome.FramesRewritten
			snap.Verdicts[s.outcome.Verdict]++
			snap.Retries += s.outcome.Retries
			snap.TransportFaults += s.outcome.TransportFaults
			if s.class != "" {
				if snap.PerClass == nil {
					snap.PerClass = make(map[string]map[string]int)
				}
				if snap.PerClass[s.class] == nil {
					snap.PerClass[s.class] = make(map[string]int)
				}
				snap.PerClass[s.class][s.outcome.Verdict]++
			}
		}
		snap.Targets = append(snap.Targets, row)
	}
	return snap
}

// Package fleetd is the coordination layer of the fleet stack: a
// long-running daemon that owns a registry, a sharded dispatcher and
// (optionally) a scheduler, and exposes the fleet over a JSON control
// API mounted on the observability mux:
//
//	GET  /fleet/devices — membership with class and shard assignment
//	GET  /fleet/sweeps  — history of completed sweeps, newest first
//	POST /fleet/sweep   — trigger a sweep (optionally class-scoped)
//	GET  /fleet/status  — daemon state: active sweep, totals, drain
//
// With tracing configured (Template.Spans / Template.Flight) the trace
// exports /debug/trace and /debug/trace/perfetto and the post-mortem
// listing /fleet/flightrecords mount alongside.
//
// Sweeps are serialized: API triggers and scheduler firings queue on
// one mutex, so the fleet is never mid-two-sweeps (the dispatcher
// bounds concurrency within a sweep; fleetd bounds sweeps to one).
// Shutdown is a graceful drain — new sweeps are refused with 503 and
// the in-flight sweep finishes, or is cancelled once DrainGrace passes.
// A sweep returns only once every session it launched has ended, so
// when Run returns no session still drives a device.
package fleetd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"sacha/internal/attestation"
	"sacha/internal/core"
	"sacha/internal/fleet"
	"sacha/internal/fleet/dispatch"
	"sacha/internal/fleet/registry"
	"sacha/internal/fleet/scheduler"
	"sacha/internal/obs"
	"sacha/internal/obs/span"
)

// Config shapes a Daemon.
type Config struct {
	// Registry is the fleet membership the daemon coordinates.
	Registry registry.Registry
	// Dispatcher executes the sweeps. Nil builds a single-shard one.
	Dispatcher *dispatch.Dispatcher
	// Template is the base sweep configuration every triggered sweep
	// starts from. The daemon owns Tracker; a value set here is
	// overwritten. Template.Spans and Template.Flight, when set,
	// also back the daemon's /debug/trace, /debug/trace/perfetto and
	// /fleet/flightrecords endpoints (Routes mounts them).
	Template fleet.SweepConfig
	// Scheduler, when it has an enabled Default or PerClass cadence,
	// re-attests each class on its own loop. The zero value disables
	// scheduled sweeps: the daemon then only sweeps on POST /fleet/sweep.
	Scheduler scheduler.Config
	// Opts, when non-nil, supplies each device's per-run attestation
	// options (adversary hooks, transport knobs) — the seam the smoke
	// tests tamper fleets through. Nil attests clean.
	Opts func(deviceID uint64) core.AttestOptions
	// History bounds the retained sweep records; older records are
	// dropped. Values < 1 default to 64.
	History int
	// DrainGrace bounds the drain: when the in-flight sweep has not
	// finished within it, the sweep is cancelled: running sessions are
	// stopped within one message and they and the unstarted devices
	// report Unreachable. Zero waits indefinitely.
	DrainGrace time.Duration
}

// SweepRecord is one completed sweep in the /fleet/sweeps history — a
// JSON-ready summary of the dispatcher's Report.
type SweepRecord struct {
	ID        int       `json:"id"`
	Trigger   string    `json:"trigger"` // "api" or "scheduled"
	Class     string    `json:"class,omitempty"`
	Freshness string    `json:"freshness"`
	StartedAt time.Time `json:"started_at"`
	ElapsedNS int64     `json:"elapsed_ns"`

	Devices        int      `json:"devices"`
	Healthy        int      `json:"healthy"`
	Compromised    int      `json:"compromised"`
	Unreachable    int      `json:"unreachable"`
	Failed         int      `json:"failed"`
	CompromisedIDs []uint64 `json:"compromised_ids,omitempty"`

	PlansBuilt    int `json:"plans_built"`
	PlanCacheHits int `json:"plan_cache_hits"`
	PlanPatches   int `json:"plan_patches"`
	KeysRotated   int `json:"keys_rotated"`
	Steals        int `json:"steals"`

	// Delta-mode rollups (zero unless the sweep template enables Delta):
	// how many sessions took the scan-and-rewrite path, how many fell
	// back to a full overwrite, and which devices drifted from golden.
	DeltaApplied    int      `json:"delta_applied,omitempty"`
	DeltaFallbacks  int      `json:"delta_fallbacks,omitempty"`
	DeltaUnexpected []uint64 `json:"delta_unexpected,omitempty"`

	// NonceReplays lists devices whose derived nonce the anti-replay
	// journal refused (state-dir daemons only) — they are counted under
	// Failed, never attested under the replayed nonce.
	NonceReplays []uint64 `json:"nonce_replays,omitempty"`

	PerShard []ShardRecord `json:"per_shard"`

	Err string `json:"err,omitempty"`
}

// ShardRecord is the JSON shape of one shard's fleet.ShardStats.
type ShardRecord struct {
	Shard         int `json:"shard"`
	Routed        int `json:"routed"`
	Stolen        int `json:"stolen"`
	Classes       int `json:"classes"`
	PlansBuilt    int `json:"plans_built"`
	PlanCacheHits int `json:"plan_cache_hits"`
}

// Daemon coordinates a fleet: it serializes sweeps from the control
// API and the scheduler over one dispatcher and keeps their history.
type Daemon struct {
	cfg     Config
	disp    *dispatch.Dispatcher
	tracker *obs.SweepTracker

	sweeps  sync.WaitGroup // in-flight sweep goroutines
	sweepMu sync.Mutex     // serializes sweep execution
	// stop ends every sweep, admitted or running; stopAll fires it when
	// the drain's grace runs out.
	stop    context.Context
	stopAll context.CancelFunc

	mu       sync.Mutex
	draining bool
	nextID   int
	active   *SweepRecord // header of the in-flight sweep, nil when idle
	records  []SweepRecord
}

// New builds a daemon. It does not start anything; Run does.
func New(cfg Config) *Daemon {
	if cfg.History < 1 {
		cfg.History = 64
	}
	d := &Daemon{
		cfg:     cfg,
		disp:    cfg.Dispatcher,
		tracker: obs.NewSweepTracker(),
	}
	d.stop, d.stopAll = context.WithCancel(context.Background())
	if d.disp == nil {
		d.disp = dispatch.New(dispatch.Config{})
	}
	return d
}

// Tracker is the daemon's live sweep tracker — hand it to obs.Serve so
// /debug/sweep shows the in-flight sweep's per-device progress.
func (d *Daemon) Tracker() *obs.SweepTracker { return d.tracker }

// Run blocks until ctx ends, firing scheduled sweeps in the meantime,
// then drains: the control API refuses new sweeps with 503, the
// scheduler stops firing, the in-flight sweep finishes (bounded by
// DrainGrace, whichever trigger started it), and Run returns once no
// sweep, and so no session, is left.
func (d *Daemon) Run(ctx context.Context) {
	schCtx, stopScheduler := context.WithCancel(context.Background())
	sch := scheduler.New(d.cfg.Scheduler, registry.Classes(d.cfg.Registry),
		func(_ context.Context, tr scheduler.Trigger) {
			// Like an async API sweep, a scheduled sweep ends only with
			// the daemon's stop, so the drain grace covers it too.
			d.sweep(context.Background(), triggerScheduled, tr.Class, sweepSpec{}, nil)
		})
	scheduled := make(chan struct{})
	go func() {
		defer close(scheduled)
		sch.Run(schCtx) // returns immediately when no cadence is enabled
	}()
	<-ctx.Done()
	d.drain(stopScheduler)
	<-scheduled
}

// drain refuses new sweeps, stops the scheduler and waits for the
// admitted sweeps, cancelling them once DrainGrace passes.
func (d *Daemon) drain(stopScheduler context.CancelFunc) {
	d.mu.Lock()
	d.draining = true
	d.mu.Unlock()
	stopScheduler()
	grace := d.cfg.DrainGrace
	obs.Logger().Info("fleetd draining", "grace", grace)
	if grace > 0 {
		defer time.AfterFunc(grace, d.stopAll).Stop()
	}
	d.sweeps.Wait()
	obs.Logger().Info("fleetd drained")
}

// Sweep runs one serialized sweep over the fleet (or one class of it)
// and records the outcome. It is the entry point shared by the control
// API and the scheduler; callers block until the sweep completes. A
// draining daemon refuses with an error.
func (d *Daemon) Sweep(ctx context.Context, trigger, class string) (SweepRecord, error) {
	return d.sweep(ctx, trigger, class, sweepSpec{}, nil)
}

// triggerScheduled is the SweepRecord.Trigger of a scheduler firing.
const triggerScheduled = "scheduled"

// errDraining refuses a sweep once the drain began.
var errDraining = errors.New("fleetd: draining, not accepting sweeps")

// isDraining reports whether the drain began.
func (d *Daemon) isDraining() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.draining
}

// sweepSpec carries one trigger's overrides of the sweep template —
// the control-API knobs (freshness policy, pinned nonce material) the
// crash-recovery rigs drive replays through. Nil fields inherit the
// template.
type sweepSpec struct {
	freshness *attestation.FreshnessPolicy
	nonce     *uint64
	nonceSeed *uint64
}

// sweep is Sweep with an optional admission channel: accepted receives
// the allocated sweep ID as soon as the sweep is admitted (before it
// queues on the serialization mutex), or 0 when the daemon refused it —
// what lets the async POST handler answer 202 while the sweep runs.
func (d *Daemon) sweep(ctx context.Context, trigger, class string, spec sweepSpec, accepted chan<- int) (SweepRecord, error) {
	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		if accepted != nil {
			accepted <- 0
		}
		return SweepRecord{}, errDraining
	}
	d.nextID++
	id := d.nextID
	d.sweeps.Add(1)
	d.mu.Unlock()
	if accepted != nil {
		accepted <- id
	}

	defer d.sweeps.Done()
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer context.AfterFunc(d.stop, cancel)()

	reg := d.cfg.Registry
	if class != "" {
		reg = registry.ByClass(reg, class)
	}

	// One sweep at a time: scheduler firings of different classes and
	// concurrent API triggers queue here instead of interleaving. A
	// scheduled firing that gets here after the drain began is dropped:
	// the drain finishes the sweeps clients were promised, it starts no
	// new round.
	d.sweepMu.Lock()
	defer d.sweepMu.Unlock()
	if trigger == triggerScheduled && d.isDraining() {
		return SweepRecord{}, errDraining
	}

	cfg := d.cfg.Template
	cfg.Tracker = d.tracker
	if spec.freshness != nil {
		cfg.Freshness = *spec.freshness
	}
	if spec.nonce != nil {
		cfg.Nonce = spec.nonce
	}
	if spec.nonceSeed != nil {
		cfg.NonceSeed = spec.nonceSeed
	}

	rec := SweepRecord{
		ID:        id,
		Trigger:   trigger,
		Class:     class,
		Freshness: cfg.Freshness.String(),
		StartedAt: time.Now(),
	}
	// Publish a copy of the header: the sweep below keeps mutating rec,
	// and /fleet/status reads active concurrently.
	hdr := rec
	d.mu.Lock()
	d.active = &hdr
	d.mu.Unlock()

	rep, err := d.disp.Sweep(sctx, reg, cfg, d.cfg.Opts)
	rec.ElapsedNS = time.Since(rec.StartedAt).Nanoseconds()
	if err != nil {
		rec.Err = err.Error()
	} else {
		rec.Devices = len(rep.Results)
		rec.Healthy = len(rep.Healthy)
		rec.Compromised = len(rep.Compromised)
		rec.Unreachable = len(rep.Unreachable)
		rec.Failed = len(rep.Failed)
		rec.CompromisedIDs = rep.Compromised
		rec.PlansBuilt = rep.PlansBuilt
		rec.PlanCacheHits = rep.PlanCacheHits
		rec.PlanPatches = rep.PlanPatches
		rec.KeysRotated = rep.KeysRotated
		rec.Steals = rep.Steals
		rec.DeltaApplied = rep.DeltaApplied
		rec.DeltaFallbacks = rep.DeltaFallbacks
		rec.DeltaUnexpected = rep.DeltaUnexpected
		rec.NonceReplays = rep.NonceReplays
		for _, st := range rep.PerShard {
			rec.PerShard = append(rec.PerShard, ShardRecord(st))
		}
	}

	d.mu.Lock()
	d.active = nil
	d.records = append(d.records, rec)
	if len(d.records) > d.cfg.History {
		d.records = d.records[len(d.records)-d.cfg.History:]
	}
	d.mu.Unlock()
	if err != nil {
		return rec, err
	}
	return rec, nil
}

// deviceRow is one member in the /fleet/devices listing. Generation is
// the device's current key generation (core.System.KeyGeneration) —
// what the crash-recovery rig compares across a daemon restart.
type deviceRow struct {
	ID         uint64 `json:"id"`
	Class      string `json:"class"`
	Shard      int    `json:"shard"`
	Generation uint64 `json:"generation"`
}

// statusView is the /fleet/status JSON shape.
type statusView struct {
	Devices   int            `json:"devices"`
	Classes   int            `json:"classes"`
	Shards    int            `json:"shards"`
	SweepsRun int            `json:"sweeps_run"`
	Active    *SweepRecord   `json:"active"` // nil when idle
	Draining  bool           `json:"draining"`
	Last      *SweepRecord   `json:"last,omitempty"`
	Verdicts  map[string]int `json:"last_verdicts,omitempty"`
}

// Routes returns the /fleet/* control API, ready to mount on the obs
// mux via obs.Serve's extra routes. When the sweep template traces
// (Template.Spans) the trace export endpoints ride along, and when it
// flight-records (Template.Flight) so does /fleet/flightrecords.
func (d *Daemon) Routes() []obs.Route {
	routes := []obs.Route{
		{Pattern: "/fleet/devices", Handler: http.HandlerFunc(d.handleDevices)},
		{Pattern: "/fleet/sweeps", Handler: http.HandlerFunc(d.handleSweeps)},
		{Pattern: "/fleet/sweep", Handler: http.HandlerFunc(d.handleSweep)},
		{Pattern: "/fleet/status", Handler: http.HandlerFunc(d.handleStatus)},
	}
	if col := d.cfg.Template.Spans; col != nil {
		routes = append(routes, span.Routes(col)...)
	}
	if rec := d.cfg.Template.Flight; rec != nil {
		routes = append(routes, obs.Route{
			Pattern: "/fleet/flightrecords", Handler: span.FlightHandler(rec),
		})
	}
	return routes
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// handleDevices lists the membership with each device's class and the
// shard class-affinity routing would place it on — the routing is a
// pure function of the membership, so the listing can compute it
// without running a sweep.
func (d *Daemon) handleDevices(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	reg := d.cfg.Registry
	shardOf := dispatch.RouteClasses(reg, d.disp.Shards())
	rows := make([]deviceRow, 0, len(reg.IDs()))
	for _, id := range reg.IDs() {
		class, _ := reg.ClassOf(id)
		row := deviceRow{ID: id, Class: class, Shard: shardOf[class]}
		if sys, ok := reg.System(id); ok {
			row.Generation = sys.KeyGeneration()
		}
		rows = append(rows, row)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"devices": rows,
		"classes": registry.Classes(reg),
	})
}

// handleSweeps returns the sweep history, newest first.
func (d *Daemon) handleSweeps(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	d.mu.Lock()
	out := make([]SweepRecord, 0, len(d.records))
	for i := len(d.records) - 1; i >= 0; i-- {
		out = append(out, d.records[i])
	}
	d.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"sweeps": out})
}

// maxSweepBody bounds the POST /fleet/sweep body: it carries five
// scalar fields, so anything larger is refused with 413 before it is
// buffered.
const maxSweepBody = 4 << 10

// sweepRequest is the optional POST /fleet/sweep body.
type sweepRequest struct {
	// Class scopes the sweep to one device class (empty = whole fleet).
	Class string `json:"class"`
	// Wait makes the POST synchronous: the response is the completed
	// SweepRecord instead of an accepted-and-running header.
	Wait bool `json:"wait"`
	// Freshness overrides the template's freshness policy for this sweep
	// ("per-sweep", "per-device" or "rotate-key"; empty inherits).
	Freshness string `json:"freshness"`
	// Nonce pins the sweep nonce (PerSweep) and NonceSeed the
	// per-device derivation base (PerDevice/RotateKey) — the
	// reproducibility knobs the crash-recovery rig replays sweeps
	// through. Nil inherits the template (usually: draw fresh).
	Nonce     *uint64 `json:"nonce"`
	NonceSeed *uint64 `json:"nonce_seed"`
}

// decodeSweepRequest decodes a POST /fleet/sweep body into req, failing
// closed: an unknown field (a misspelt "nonceseed" would otherwise run an
// unpinned sweep) or anything after the object is an error. An empty
// body is a legal whole-fleet trigger.
func decodeSweepRequest(body io.Reader, req *sweepRequest) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		if errors.Is(err, io.EOF) {
			return nil
		}
		return err
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		if err == nil {
			return errors.New("trailing data after the request object")
		}
		return fmt.Errorf("trailing data after the request object: %w", err)
	}
	return nil
}

// handleSweep triggers a sweep. By default it returns 202 immediately
// with the sweep's ID ({"id": N, "status": "started"}) and the caller
// polls /fleet/status; {"wait": true} blocks and returns the record.
func (d *Daemon) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req sweepRequest
	if r.Body != nil {
		body := http.MaxBytesReader(w, r.Body, maxSweepBody)
		if err := decodeSweepRequest(body, &req); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
				return
			}
			http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	var spec sweepSpec
	if req.Freshness != "" {
		pol, err := attestation.ParseFreshnessPolicy(req.Freshness)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		spec.freshness = &pol
	}
	spec.nonce = req.Nonce
	spec.nonceSeed = req.NonceSeed
	if d.isDraining() {
		http.Error(w, "draining, not accepting sweeps", http.StatusServiceUnavailable)
		return
	}
	if req.Wait {
		rec, err := d.sweep(r.Context(), "api", req.Class, spec, nil)
		if err != nil && rec.ID == 0 {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		writeJSON(w, http.StatusOK, rec)
		return
	}
	// Async trigger: the sweep outlives the request, so it runs under
	// the daemon's lifetime, not the request context.
	started := make(chan int, 1)
	go func() {
		if _, err := d.sweep(context.Background(), "api", req.Class, spec, started); err != nil {
			obs.Logger().Warn("api sweep failed", "err", err)
		}
	}()
	// The ID is allocated before the sweep queues on the serialization
	// mutex, so the response can name it without waiting for the sweep.
	id := <-started
	if id == 0 {
		http.Error(w, "draining, not accepting sweeps", http.StatusServiceUnavailable)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"id": id, "status": "started"})
}

// handleStatus reports the daemon's state: membership size, shard
// count, the in-flight sweep (if any) and the last completed record.
func (d *Daemon) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	reg := d.cfg.Registry
	d.mu.Lock()
	view := statusView{
		Devices:   len(reg.IDs()),
		Classes:   len(registry.Classes(reg)),
		Shards:    d.disp.Shards(),
		SweepsRun: len(d.records),
		Active:    d.active,
		Draining:  d.draining,
	}
	if n := len(d.records); n > 0 {
		last := d.records[n-1]
		view.Last = &last
		view.Verdicts = map[string]int{
			obs.VerdictHealthy:     last.Healthy,
			obs.VerdictCompromised: last.Compromised,
			obs.VerdictUnreachable: last.Unreachable,
			obs.VerdictFailed:      last.Failed,
		}
	}
	d.mu.Unlock()
	writeJSON(w, http.StatusOK, view)
}

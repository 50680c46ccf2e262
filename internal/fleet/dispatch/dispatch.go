// Package dispatch is the execution layer of the fleet stack: it runs
// one sweep over a registry through N verifier shards. Each shard owns
// the attestation plans (and, in a long-lived Dispatcher, the
// PlanCache) of the device classes routed to it — class-affinity
// routing keeps a class's plan and nonce-patch path hot on one shard
// instead of smearing it across all of them. Workers drain their home
// shard's queue first and then steal from other shards' tails, so a
// shard full of stragglers cannot idle the rest of the pool.
//
// Every sweep attests through shared per-class plans: one plan per
// device class, built (or fetched from the shard's cache) before the
// worker pool starts, so every nonce the sweep issues is drawn where
// the anti-replay journal can spend it. The shard count changes only
// placement: one bounded worker pool of SweepConfig.Concurrency
// sessions across ALL shards, per-device deadlines, and the same
// verdict taxonomy. The one-shard dispatcher is the differential
// baseline (sharded ≡ one shard, verdicts and H_Vrf bit-identical).
package dispatch

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"

	"sacha/internal/attestation"
	"sacha/internal/channel"
	"sacha/internal/core"
	"sacha/internal/fleet"
	"sacha/internal/fleet/registry"
	"sacha/internal/obs"
	"sacha/internal/obs/span"
	"sacha/internal/verifier"
)

// Fleet-sweep metric families: live progress (in-flight and completed
// device attestations) and the per-class health partition of the most
// recent sweep. The class gauges are overwritten sweep by sweep — they
// answer "how healthy is each device class right now", while the
// counters accumulate across sweeps. The families keep their historic
// names (sacha_sweep_*; dashboards and the campaign metric audit key
// on them).
var (
	mSweepInflight = obs.Default().Gauge("sacha_sweep_inflight",
		"Device attestations currently running in fleet sweeps.")
	mSweepCompleted = obs.Default().CounterVec("sacha_sweep_completed_total",
		"Device attestations completed in fleet sweeps, by verdict.", "verdict")
	mSweeps = obs.Default().Counter("sacha_sweeps_total",
		"Fleet sweeps run.")
	mClassState = obs.Default().GaugeVec("sacha_sweep_class_state",
		"Per-class health partition of the most recent fleet sweep.", "class", "state")
	mKeysRotated = obs.Default().Counter("sacha_sweep_keys_rotated_total",
		"Per-device PUF key rotations performed by RotateKey-policy sweeps.")
	mNonceReplays = obs.Default().Counter("sacha_sweep_nonce_replays_total",
		"Nonces the durable anti-replay journal refused to issue.")

	// Per-shard accounting of the sharded dispatcher.
	mRouted = obs.Default().CounterVec("sacha_dispatch_routed_total",
		"Devices class-affinity-routed to a dispatcher shard.", "shard")
	mSteals = obs.Default().CounterVec("sacha_dispatch_steals_total",
		"Devices a shard's workers stole from other shards' queues.", "shard")
	mShardPlansBuilt = obs.Default().CounterVec("sacha_dispatch_plans_built_total",
		"Attestation plans built by a dispatcher shard.", "shard")
	mShardCacheHits = obs.Default().CounterVec("sacha_dispatch_plan_cache_hits_total",
		"Plan cache hits served to a dispatcher shard.", "shard")
)

// Config shapes a Dispatcher.
type Config struct {
	// Shards is the number of verifier shards; values < 1 mean 1.
	Shards int
	// PlanCacheSize, when > 0, gives every shard its own PlanCache of
	// that capacity, persisting across sweeps — the warm path of a
	// long-lived dispatcher (sacha-fleetd, the campaign harness): after
	// the first sweep every shard serves its classes from its own cache
	// and builds zero plans.
	PlanCacheSize int
}

// Dispatcher executes sweeps over N shards. It is safe for sequential
// reuse across sweeps (that is what keeps the per-shard caches warm).
// Concurrent Sweep calls share the per-shard caches and are legal over
// disjoint devices; sweeps that share a device must be serialized, as
// fleetd does, because a device serves one session at a time.
type Dispatcher struct {
	shards int
	caches []*attestation.PlanCache
}

// New builds a dispatcher.
func New(cfg Config) *Dispatcher {
	n := cfg.Shards
	if n < 1 {
		n = 1
	}
	d := &Dispatcher{shards: n, caches: make([]*attestation.PlanCache, n)}
	if cfg.PlanCacheSize > 0 {
		for i := range d.caches {
			d.caches[i] = attestation.NewPlanCache(cfg.PlanCacheSize)
		}
	}
	return d
}

// Shards returns the shard count.
func (d *Dispatcher) Shards() int { return d.shards }

// planEntry is the outcome of one per-class plan build.
type planEntry struct {
	plan *attestation.Plan
	err  error
}

// sweepState is the per-sweep immutable context the workers share.
type sweepState struct {
	cfg        fleet.SweepConfig
	reg        registry.Registry
	order      []uint64
	systems    []*core.System
	classes    []string // aligned with order
	plans      map[string]planEntry
	sweepNonce uint64
	nonceBase  uint64
	trace      span.TraceID
	root       *span.Span
	queues     []*queue
	results    []fleet.DeviceResult
	stats      []fleet.ShardStats
	statsMu    sync.Mutex
}

// queue is one shard's device backlog: indices into order. The home
// worker pops the head (preserving enrollment order, the cache-friendly
// end); thieves pop the tail, classic work-stealing, so victim and
// thief never contend on the same element.
type queue struct {
	mu    sync.Mutex
	items []int
}

func (q *queue) popHead() (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.items) == 0 {
		return 0, false
	}
	i := q.items[0]
	q.items = q.items[1:]
	return i, true
}

func (q *queue) popTail() (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.items) == 0 {
		return 0, false
	}
	i := q.items[len(q.items)-1]
	q.items = q.items[:len(q.items)-1]
	return i, true
}

// validate rejects contradictory sweep configurations before any
// network or fabric work starts.
func validate(st *sweepState) error {
	cfg := st.cfg
	if !cfg.Freshness.Valid() {
		return fmt.Errorf("sweep: unknown freshness policy %d", int(cfg.Freshness))
	}
	if cfg.Nonce != nil && cfg.Freshness != attestation.PerSweep {
		return &fleet.NoncePolicyError{Policy: cfg.Freshness}
	}
	if cfg.Freshness == attestation.RotateKey {
		for i, sys := range st.systems {
			if mode := sys.KeyMode(); mode != core.KeyDynPUF {
				return &fleet.KeyModeError{DeviceID: st.order[i], Mode: mode}
			}
		}
	}
	if cfg.Delta && cfg.Trust == nil {
		// The delta admissibility precondition is per-device state only
		// the ledger carries.
		return fmt.Errorf("sweep: Delta requires a Trust ledger (every session would fall back cold without recorded warmth)")
	}
	return nil
}

// RouteClasses computes the class→shard assignment the dispatcher
// would use for the registry's current membership — the same pure
// function Sweep routes with, so fleetd's /fleet/devices listing can
// report shard placement without running a sweep.
func RouteClasses(reg registry.Registry, shards int) map[string]int {
	if shards < 1 {
		shards = 1
	}
	classes := make([]string, 0, len(reg.IDs()))
	for _, id := range reg.IDs() {
		c, _ := reg.ClassOf(id)
		classes = append(classes, c)
	}
	return routeClasses(classes, shards)
}

// routeClasses assigns every device class to a shard, balancing by
// device count: classes are placed biggest-first onto the currently
// lightest shard (ties break on class key, then shard index), so a
// two-class fleet on a two-shard dispatcher always splits one class
// per shard. classes holds one entry per device (not per class), so
// class weights fall out of the multiplicity. The assignment is a pure
// function of the membership — the property that keeps a class's plans
// landing on the same shard sweep after sweep, which is what makes the
// per-shard caches worth owning.
func routeClasses(classes []string, shards int) map[string]int {
	count := make(map[string]int)
	for _, c := range classes {
		count[c]++
	}
	keys := make([]string, 0, len(count))
	for c := range count {
		keys = append(keys, c)
	}
	sort.Slice(keys, func(i, j int) bool {
		if count[keys[i]] != count[keys[j]] {
			return count[keys[i]] > count[keys[j]]
		}
		return keys[i] < keys[j]
	})
	load := make([]int, shards)
	assign := make(map[string]int, len(keys))
	for _, c := range keys {
		best := 0
		for s := 1; s < shards; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		assign[c] = best
		load[best] += count[c]
	}
	return assign
}

// buildPlans constructs (or fetches from the shard's cache) one shared
// plan per device class, attributing build/hit counts to the class's
// shard. Every class spec comes from PatchableSpec, so its cache key is
// nonce-free and a cached plan serves every sweep of the class. Under
// PerSweep the class plan is patched once to the sweep nonce and every
// session runs it as it is; under PerDevice/RotateKey attestOne patches
// it per device. A class whose plan fails to build carries the error to
// every member (reported Failed, not Unreachable — nothing was
// transported).
func (d *Dispatcher) buildPlans(st *sweepState, classShard map[string]int) {
	cfg := st.cfg
	// The sweep's Compress/Delta are the only plan-shaping options a
	// sweep sets; every other field keeps its paper default.
	opts := verifier.Options{Compress: cfg.Compress, Delta: cfg.Delta}
	st.plans = make(map[string]planEntry)
	for i, sys := range st.systems {
		key := st.classes[i]
		if _, ok := st.plans[key]; ok {
			continue
		}
		shard := classShard[key]
		spec, err := sys.PatchableSpec(opts)
		if err != nil {
			st.plans[key] = planEntry{err: err}
			continue
		}
		var p *attestation.Plan
		if cache := d.caches[shard]; cache != nil {
			var built bool
			if p, built, err = cache.GetOrBuild(spec); err == nil {
				if built {
					st.stats[shard].PlansBuilt++
				} else {
					st.stats[shard].PlanCacheHits++
				}
			}
		} else {
			p, err = attestation.NewPlan(spec)
			st.stats[shard].PlansBuilt++
		}
		if err == nil && cfg.Freshness == attestation.PerSweep {
			p, err = p.WithNonce(st.sweepNonce)
		}
		st.plans[key] = planEntry{plan: p, err: err}
	}
}

// Sweep attests every registry member through the sharded worker pool.
// The context cancels the whole sweep: devices not yet started when ctx
// is done, and the sessions it stops, are reported Unreachable with
// ctx's error. Sweep returns only once every session it launched has
// ended, so none still drives a device afterwards. A contradictory
// configuration (pinned nonce under a per-device freshness policy,
// RotateKey over a non-rotatable key mode) is rejected with a typed
// error before any device is touched.
func (d *Dispatcher) Sweep(ctx context.Context, reg registry.Registry, cfg fleet.SweepConfig, opts func(deviceID uint64) core.AttestOptions) (*fleet.Report, error) {
	if opts == nil {
		opts = func(uint64) core.AttestOptions { return core.AttestOptions{} }
	}
	order := reg.IDs()
	st := &sweepState{
		cfg:     cfg,
		reg:     reg,
		order:   order,
		systems: make([]*core.System, len(order)),
		classes: make([]string, len(order)),
		results: make([]fleet.DeviceResult, len(order)),
		stats:   make([]fleet.ShardStats, d.shards),
	}
	for i := range st.stats {
		st.stats[i].Shard = i
	}
	for i, id := range order {
		sys, ok := reg.System(id)
		if !ok {
			return nil, fmt.Errorf("sweep: registry lists device %d but cannot resolve it", id)
		}
		st.systems[i] = sys
		st.classes[i], _ = reg.ClassOf(id)
	}
	if err := validate(st); err != nil {
		return nil, err
	}
	workers := cfg.Concurrency
	if workers < 1 {
		workers = fleet.DefaultConcurrency
	}
	if workers > len(order) {
		workers = len(order)
	}
	start := time.Now()
	mSweeps.Inc()
	keysRotated := 0
	if cfg.Freshness == attestation.RotateKey {
		// Rotate every key before routing and plan building: the shipped
		// PUF circuit changes each class's golden image AND its class key,
		// so membership is re-read below and the per-class plans are built
		// for the new generation.
		for _, id := range order {
			if err := reg.RotateKey(id); err != nil {
				return nil, fmt.Errorf("sweep: rotating key of device %d: %w", id, err)
			}
			keysRotated++
		}
		mKeysRotated.Add(uint64(keysRotated))
		for i, id := range order {
			st.classes[i], _ = reg.ClassOf(id)
		}
	}
	if cfg.Freshness == attestation.PerSweep {
		// The single sweep nonce is drawn here (not in buildPlans) so the
		// anti-replay journal can spend it before any plan or session
		// exists: a replayed sweep nonce aborts the sweep with no device
		// ever configured under it.
		st.sweepNonce = rand.Uint64()
		if cfg.Nonce != nil {
			st.sweepNonce = *cfg.Nonce
		}
		if cfg.Nonces != nil {
			if err := cfg.Nonces.Spend(st.sweepNonce); err != nil {
				mNonceReplays.Inc()
				return nil, &fleet.NonceReplayError{Nonce: st.sweepNonce, Err: err}
			}
		}
	}
	st.nonceBase = rand.Uint64()
	if cfg.NonceSeed != nil {
		st.nonceBase = *cfg.NonceSeed
	}
	// The trace ID derives from the nonce base — the same seed that
	// already pins every per-device nonce — so a pinned NonceSeed pins
	// the whole span ID space and two runs of the same sweep export
	// identical causal trees.
	st.trace = span.NewTraceID(st.nonceBase)
	if cfg.Spans != nil {
		st.root = cfg.Spans.StartTrace(st.trace, "sweep")
		st.root.SetTag("devices", strconv.Itoa(len(order)))
		st.root.SetTag("shards", strconv.Itoa(d.shards))
		st.root.SetTag("freshness", cfg.Freshness.String())
	}
	classShard := routeClasses(st.classes, d.shards)
	st.queues = make([]*queue, d.shards)
	for s := range st.queues {
		st.queues[s] = &queue{}
	}
	for i := range order {
		s := classShard[st.classes[i]]
		st.queues[s].items = append(st.queues[s].items, i)
		st.stats[s].Routed++
	}
	for s := range st.stats {
		seen := 0
		for c, sh := range classShard {
			if sh == s && c != "" {
				seen++
			}
		}
		st.stats[s].Classes = seen
		mRouted.With(strconv.Itoa(s)).Add(uint64(st.stats[s].Routed))
	}
	d.buildPlans(st, classShard)
	var plansBuilt, planCacheHits int
	for s := range st.stats {
		mShardPlansBuilt.With(strconv.Itoa(s)).Add(uint64(st.stats[s].PlansBuilt))
		mShardCacheHits.With(strconv.Itoa(s)).Add(uint64(st.stats[s].PlanCacheHits))
		plansBuilt += st.stats[s].PlansBuilt
		planCacheHits += st.stats[s].PlanCacheHits
	}
	if cfg.Tracker != nil {
		targets := make([]obs.SweepTarget, 0, len(order))
		for i, id := range order {
			targets = append(targets, obs.SweepTarget{
				Name:  fmt.Sprintf("device-%d", id),
				Class: st.classes[i],
			})
		}
		cfg.Tracker.Begin(targets)
	}
	obs.Logger().Info("sweep start", "devices", len(order), "workers", workers,
		"shards", d.shards, "freshness", cfg.Freshness.String(),
		"plans_built", plansBuilt, "plan_cache_hits", planCacheHits, "keys_rotated", keysRotated)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			d.runWorker(ctx, st, worker, opts)
		}(w)
	}
	wg.Wait()

	out := &fleet.Report{
		Results:       st.results,
		Elapsed:       time.Since(start),
		PlansBuilt:    plansBuilt,
		PlanCacheHits: planCacheHits,
		KeysRotated:   keysRotated,
		PerShard:      st.stats,
		PerClass:      make(map[string]fleet.ClassHealth),
	}
	for s := range st.stats {
		out.Steals += st.stats[s].Stolen
	}
	for _, r := range st.results {
		if r.PlanPatched {
			out.PlanPatches++
		}
		ch := out.PerClass[r.Class]
		switch {
		case r.Healthy():
			out.Healthy = append(out.Healthy, r.DeviceID)
			ch.Healthy++
		case r.Compromised():
			out.Compromised = append(out.Compromised, r.DeviceID)
			ch.Compromised++
		case r.Unreachable():
			out.Unreachable = append(out.Unreachable, r.DeviceID)
			ch.Unreachable++
		default:
			out.Failed = append(out.Failed, r.DeviceID)
			ch.Failed++
		}
		out.PerClass[r.Class] = ch
		var nre *fleet.NonceReplayError
		if errors.As(r.Err, &nre) {
			out.NonceReplays = append(out.NonceReplays, r.DeviceID)
		}
		if r.Report != nil {
			out.Retries += r.Report.Retries
			out.TransportFaults += r.Report.TransportFaults
			if r.Report.Delta.Enabled {
				if r.Report.Delta.Applied {
					out.DeltaApplied++
				} else {
					out.DeltaFallbacks++
				}
				if len(r.Report.Delta.Unexpected) > 0 {
					out.DeltaUnexpected = append(out.DeltaUnexpected, r.DeviceID)
				}
			}
		}
	}
	if st.root != nil {
		st.root.SetTag("healthy", strconv.Itoa(len(out.Healthy)))
		st.root.SetTag("compromised", strconv.Itoa(len(out.Compromised)))
		st.root.SetTag("unreachable", strconv.Itoa(len(out.Unreachable)))
		st.root.SetTag("failed", strconv.Itoa(len(out.Failed)))
		st.root.SetTag("steals", strconv.Itoa(out.Steals))
		st.root.End()
	}
	for class, ch := range out.PerClass {
		mClassState.With(class, obs.VerdictHealthy).Set(int64(ch.Healthy))
		mClassState.With(class, obs.VerdictCompromised).Set(int64(ch.Compromised))
		mClassState.With(class, obs.VerdictUnreachable).Set(int64(ch.Unreachable))
		mClassState.With(class, obs.VerdictFailed).Set(int64(ch.Failed))
	}
	obs.Logger().Info("sweep done", "elapsed", out.Elapsed,
		"healthy", len(out.Healthy), "compromised", len(out.Compromised),
		"unreachable", len(out.Unreachable), "failed", len(out.Failed),
		"retries", out.Retries, "transport_faults", out.TransportFaults,
		"plan_patches", out.PlanPatches, "keys_rotated", out.KeysRotated,
		"steals", out.Steals,
		"delta_applied", out.DeltaApplied, "delta_fallbacks", out.DeltaFallbacks)
	return out, nil
}

// runWorker drains the worker's home shard queue head-first, then
// steals from the other shards' tails (scanning from the next shard
// up, a fixed order) until every queue is dry. No queue grows during a
// sweep, so a full empty scan is a correct exit condition.
func (d *Dispatcher) runWorker(ctx context.Context, st *sweepState, worker int, opts func(uint64) core.AttestOptions) {
	home := worker % d.shards
	for {
		if i, ok := st.queues[home].popHead(); ok {
			st.results[i] = d.attestOne(ctx, st, i, home, worker, opts(st.order[i]))
			continue
		}
		stole := false
		for off := 1; off < d.shards; off++ {
			victim := (home + off) % d.shards
			if i, ok := st.queues[victim].popTail(); ok {
				st.statsMu.Lock()
				st.stats[home].Stolen++
				st.statsMu.Unlock()
				mSteals.With(strconv.Itoa(home)).Inc()
				// The stolen device still attests through the victim
				// shard's plan — affinity follows the class, not the
				// thief — so Shard names the victim and Worker the thief.
				st.results[i] = d.attestOne(ctx, st, i, victim, worker, opts(st.order[i]))
				stole = true
				break
			}
		}
		if !stole {
			return
		}
	}
}

// attestOne runs a single device attestation under the sweep's deadline
// discipline, through the class's shared plan.
func (d *Dispatcher) attestOne(ctx context.Context, st *sweepState, i, shard, worker int, o core.AttestOptions) (res fleet.DeviceResult) {
	cfg := st.cfg
	t0 := time.Now()
	id := st.order[i]
	sys := st.systems[i]
	class := st.classes[i]
	name := fmt.Sprintf("device-%d", id)
	if cfg.Tracker != nil {
		cfg.Tracker.Start(name)
	}
	var sp *span.Span
	if cfg.Spans != nil {
		// The session span's ID derives from (trace, device) only, so it
		// is stable across shard placement and steal order; which worker
		// actually ran the device is attribution, recorded as tags.
		sp = st.root.DeviceChild(name, id)
		sp.SetTag("class", class)
		sp.SetTag("shard", strconv.Itoa(shard))
		sp.SetTag("worker", strconv.Itoa(worker))
		if home := worker % d.shards; home != shard {
			sp.SetTag("stolen_from_shard", strconv.Itoa(shard))
			sp.SetTag("thief_home_shard", strconv.Itoa(home))
		}
		o.Opts.Span = sp
	}
	mSweepInflight.Inc()
	defer func() {
		res.Class = class
		res.Shard = shard
		res.Worker = worker
		if sp != nil {
			sp.SetTag("verdict", res.Verdict())
			if res.Err != nil {
				sp.SetTag("err", res.Err.Error())
			}
			if res.Nonce != 0 {
				sp.SetTag("nonce", fmt.Sprintf("%016x", res.Nonce))
			}
			sp.End()
		}
		if cfg.Flight != nil && res.Verdict() != obs.VerdictHealthy {
			var rep any
			if res.Report != nil {
				rep = res.Report
			}
			cfg.Flight.RecordVerdict(cfg.Spans, st.trace, id, res.Verdict(), rep)
		}
		if cfg.Trust != nil {
			// Full trust — the delta admissibility precondition for the
			// NEXT session — is a Healthy verdict whose delta scan (if one
			// ran) saw no drift outside the nonce frames. Everything else,
			// including transport failures and plan errors, demotes to cold.
			fullTrust := res.Healthy() && len(res.Report.Delta.Unexpected) == 0
			cfg.Trust.Record(id, class, fullTrust)
		}
		mSweepInflight.Dec()
		mSweepCompleted.With(res.Verdict()).Inc()
		if cfg.Tracker != nil {
			out := obs.SweepOutcome{Verdict: res.Verdict(), Elapsed: res.Elapsed,
				Shard: shard, Worker: worker}
			if res.Report != nil {
				out.Retries = res.Report.Retries
				out.TransportFaults = res.Report.TransportFaults
				if res.Report.Delta.Enabled {
					out.DeltaApplied = res.Report.Delta.Applied
					out.DeltaFallback = res.Report.Delta.Fallback
					out.FramesRewritten = res.Report.Delta.FramesRewritten
				}
			}
			if res.Err != nil {
				out.Err = res.Err.Error()
			}
			cfg.Tracker.Done(name, out)
		}
		obs.Logger().Debug("device attested", "device", id, "class", class,
			"shard", shard, "worker", worker,
			"verdict", res.Verdict(), "elapsed", res.Elapsed)
	}()
	if err := ctx.Err(); err != nil {
		return fleet.DeviceResult{DeviceID: id, Err: err}
	}
	if cfg.Delta {
		// The class plan carries the delta artifacts; the session runs
		// delta only when the ledger warrants it: the device's immediately
		// preceding full-trust attestation succeeded under exactly this
		// class (key generation + golden build). A RotateKey sweep advanced
		// the class above, so every first session after a rotation is cold
		// by construction.
		o.Opts.DeltaWarm = cfg.Trust.Warm(id, class)
	}
	entry := st.plans[class]
	if entry.err != nil {
		return fleet.DeviceResult{DeviceID: id, Err: fmt.Errorf("sweep: plan for device %d: %w", id, entry.err), Elapsed: time.Since(t0)}
	}
	plan := entry.plan
	var patched bool
	var deviceNonce uint64
	if cfg.Freshness != attestation.PerSweep {
		// Per-device freshness: re-nonce the class's shared plan for this
		// device. The patch is O(nonce column) and never mutates the base,
		// so concurrent workers patch the same plan freely. The nonce
		// derives from the sweep base — a pure function of (base, device),
		// identical no matter which shard or worker runs the device.
		deviceNonce = fleet.DeviceNonce(st.nonceBase, id)
		if cfg.Nonces != nil {
			// Spend the derived nonce before it configures anything: a
			// replay (e.g. the same NonceSeed re-submitted after a restart)
			// fails this device, it is never attested under the journaled
			// nonce.
			if err := cfg.Nonces.Spend(deviceNonce); err != nil {
				mNonceReplays.Inc()
				return fleet.DeviceResult{DeviceID: id, Err: &fleet.NonceReplayError{DeviceID: id, Nonce: deviceNonce, Err: err}, Elapsed: time.Since(t0), Nonce: deviceNonce}
			}
		}
		pp, err := plan.WithNonce(deviceNonce)
		if err != nil {
			return fleet.DeviceResult{DeviceID: id, Err: fmt.Errorf("sweep: patching nonce for device %d: %w", id, err), Elapsed: time.Since(t0)}
		}
		plan, patched = pp, true
	}
	var dctx context.Context
	var cancel context.CancelFunc
	if cfg.PerDeviceTimeout > 0 {
		dctx, cancel = context.WithTimeout(ctx, cfg.PerDeviceTimeout)
	} else {
		dctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	// The session runs on this worker. When the device's deadline passes
	// or the sweep is cancelled, closing the outermost endpoint fails the
	// Run's next Send or Recv, so the session stops within one message
	// and never outlives its sweep. The inline link's Close waits for a
	// handler call in progress: a prover handler that never returned
	// would hold the worker, but the simulated prover always returns.
	wrap := o.WrapVerifierChannel
	var stop func() bool
	o.WrapVerifierChannel = func(ep channel.Endpoint) channel.Endpoint {
		if wrap != nil {
			ep = wrap(ep)
		}
		stop = context.AfterFunc(dctx, func() { ep.Close() })
		return ep
	}
	rep, err := sys.AttestWithPlan(plan, o)
	stop()
	if err != nil && dctx.Err() != nil {
		// The link was closed under the session: the deadline or the
		// cancellation is the outcome, reported Unreachable.
		return fleet.DeviceResult{DeviceID: id, Err: fmt.Errorf("sweep: device %d: %w", id, dctx.Err()), Elapsed: time.Since(t0), PlanPatched: patched, Nonce: deviceNonce}
	}
	return fleet.DeviceResult{DeviceID: id, Report: rep, Err: err, Elapsed: time.Since(t0), PlanPatched: patched, Nonce: deviceNonce}
}

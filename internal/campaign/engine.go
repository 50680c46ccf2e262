package campaign

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sacha/internal/attack"
	"sacha/internal/attestation"
	"sacha/internal/channel"
	"sacha/internal/core"
	"sacha/internal/device"
	"sacha/internal/fabric"
	"sacha/internal/fleet"
	"sacha/internal/fleet/dispatch"
	"sacha/internal/fleet/registry"
	"sacha/internal/netlist"
	"sacha/internal/obs"
	"sacha/internal/obs/span"
	"sacha/internal/prover"
	"sacha/internal/scrub"
	"sacha/internal/store"
)

// Handles on the dispatcher's sweep metric families (registration is
// idempotent), used to audit the live metrics against the campaign
// ledger — invariant 3.
var (
	cmSweeps = obs.Default().Counter("sacha_sweeps_total",
		"Fleet sweeps run.")
	cmSweepCompleted = obs.Default().CounterVec("sacha_sweep_completed_total",
		"Device attestations completed in fleet sweeps, by verdict.", "verdict")
	cmSweepInflight = obs.Default().Gauge("sacha_sweep_inflight",
		"Device attestations currently running in fleet sweeps.")
	mCampaignEvents = obs.Default().CounterVec("sacha_campaign_events_total",
		"Campaign events executed, by kind.", "kind")
	mCampaignViolations = obs.Default().Counter("sacha_campaign_violations_total",
		"Campaign invariant violations detected.")
)

// auditVerdicts are the sweep verdict partitions the metric audit
// reconciles against the ledger.
var auditVerdicts = []string{
	obs.VerdictHealthy, obs.VerdictCompromised, obs.VerdictUnreachable, obs.VerdictFailed,
}

// Engine executes one campaign over one provisioned fleet. An Engine is
// single-use: provision with New, drive with Run.
type Engine struct {
	sc      Scenario
	reg     registry.Registry
	disp    *dispatch.Dispatcher
	sched   *Scheduler
	led     *ledger
	factory func(deviceID uint64) (*core.System, error)
	// Durable-state harness (non-nil only when the scenario weights crash
	// events): the store behind the registry, its directory (a temp dir
	// removed when Run ends) and the options every reopen uses.
	st        *store.Store
	stateDir  string
	storeOpts store.Options
	// spentSweepNonces are the PerSweep nonces the journal spent, in
	// order — the reconciliation witness runCrash replays against the
	// reopened journal.
	spentSweepNonces []uint64
	// sessions joins every attestation session a sweep launched —
	// including sessions a cancellation abandoned — so consecutive
	// events never overlap on a device.
	sessions sync.WaitGroup
	advByKey map[string]func(*core.System) attack.Result
	// Per-geometry artifacts, keyed by geometry name.
	tamperTargets map[string]tamperTarget
	masks         map[string]*fabric.Image
	baseline      metricBaseline
	spans         *span.Collector
	ran           bool
}

// AttachFlight arms the campaign with causal tracing and a flight
// recorder: every sweep collects its span tree into col, and every
// invariant violation snapshots a flight record into rec at the moment
// it is detected — while col still holds the surrounding sweep's tree.
// Tampered→Compromised is the EXPECTED campaign outcome, so the
// recorder fires on violations only, not on every non-Healthy verdict.
// Call before Run.
func (e *Engine) AttachFlight(col *span.Collector, rec *span.Recorder) {
	e.spans = col
	e.led.onViolate = func(v Violation) {
		detail := fmt.Sprintf("event %d [%s]: %s", v.Event, v.Kind, v.Detail)
		rec.RecordInvariant(col, 0, v.Device, detail)
	}
}

// tamperTarget is the unmasked static-partition configuration bit the
// tamper hook flips. It must live in the static region: the hook fires
// when the prover sees the first readback command, and with pipelined
// windows the configuration stream is still in flight at that point —
// a dynamic-region flip would be healed by the config frames still
// arriving behind it. Static frames are never rewritten by the
// protocol, so the flip deterministically survives into readback
// (the engine scrub-repairs tampered devices after the sweep).
type tamperTarget struct {
	frame, word, bit int
}

type metricBaseline struct {
	sweeps    uint64
	completed map[string]uint64
}

// FleetFactory returns the mixed-geometry campaign fleet factory:
// odd device IDs are TinyLX, even are SmallLX, all in the DynPart-PUF
// key mode (the only provisioning RotateKey sweeps accept), seeded from
// the scenario seed so equal scenarios provision equal fleets.
func FleetFactory(scenarioSeed int64) func(id uint64) (*core.System, error) {
	return func(id uint64) (*core.System, error) {
		geo := device.TinyLX()
		if id%2 == 0 {
			geo = device.SmallLX()
		}
		return core.NewSystem(core.Config{
			Geo:        geo,
			App:        netlist.Blinker(8),
			KeyMode:    core.KeyDynPUF,
			DeviceID:   id,
			BuildID:    0x50AC,
			LabLatency: -1,
			Seed:       scenarioSeed*0x1000193 + int64(id),
		})
	}
}

// New validates the scenario and provisions the campaign fleet. A
// scenario that weights crash events boots through the durable
// registry: enrollments and nonces live in a temp state directory the
// crash events close and reopen (and Run removes at the end).
func New(sc Scenario) (*Engine, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	sc = sc.Normalized()
	factory := FleetFactory(sc.Seed)
	adv := make(map[string]func(*core.System) attack.Result)
	for _, a := range attack.Registry() {
		adv[a.Key] = a.Fn
	}
	e := &Engine{
		sc:            sc,
		disp:          dispatch.New(dispatch.Config{Shards: 1, PlanCacheSize: sc.PlanCacheSize}),
		sched:         NewScheduler(sc),
		led:           newLedger(),
		factory:       factory,
		advByKey:      adv,
		tamperTargets: make(map[string]tamperTarget),
		masks:         make(map[string]*fabric.Image),
	}
	if sc.Weights.Crash > 0 {
		dir, err := os.MkdirTemp("", "sacha-campaign-state-*")
		if err != nil {
			return nil, fmt.Errorf("campaign: state dir: %w", err)
		}
		e.stateDir = dir
		e.storeOpts = store.Options{Sync: store.SyncBatch}
		st, err := store.Open(dir, e.storeOpts)
		if err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("campaign: opening state store: %w", err)
		}
		dreg, err := registry.NewDurable(sc.Fleet, factory, st.Enrollment())
		if err != nil {
			st.Close()
			os.RemoveAll(dir)
			return nil, err
		}
		e.st, e.reg = st, dreg
	} else {
		reg, err := registry.New(sc.Fleet, factory)
		if err != nil {
			return nil, err
		}
		e.reg = reg
	}
	// Precompute the per-geometry mask and tamper target for every
	// geometry in the fleet: the tamper hook reads them from concurrent
	// sweep workers, so the maps must be frozen before the first event.
	for id := uint64(1); id <= uint64(sc.Fleet); id++ {
		sys, ok := e.reg.System(id)
		if !ok {
			return nil, fmt.Errorf("campaign: fleet has no device %d", id)
		}
		if _, ok := e.masks[sys.Geo.Name]; ok {
			continue
		}
		e.masks[sys.Geo.Name] = fabric.GenerateMask(sys.Geo)
		if _, err := e.findTamperTarget(sys); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Run executes the campaign until its bound (events, duration or ctx)
// trips, then audits the live metrics against the ledger and returns
// the report. The returned error covers harness failures (a plan that
// cannot build, a key that cannot rotate); invariant breaches are
// Report.Violations, not errors.
func (e *Engine) Run(ctx context.Context) (*Report, error) {
	if e.ran {
		return nil, fmt.Errorf("campaign: engine is single-use")
	}
	e.ran = true
	defer func() {
		if e.st != nil {
			e.st.Close()
			os.RemoveAll(e.stateDir)
		}
	}()
	e.captureBaseline()
	start := time.Now()
	var deadline time.Time
	if e.sc.Duration > 0 {
		deadline = start.Add(e.sc.Duration)
	}
	obs.Logger().Info("campaign start", "seed", e.sc.Seed, "fleet", e.sc.Fleet,
		"events", e.sc.MaxEvents, "duration", e.sc.Duration)
	for i := 0; ; i++ {
		if ctx.Err() != nil {
			break
		}
		if e.sc.MaxEvents > 0 && i >= e.sc.MaxEvents {
			break
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			break
		}
		ev := e.sched.Next(i)
		e.led.logEvent(ev)
		mCampaignEvents.With(ev.Kind.String()).Inc()
		var err error
		switch ev.Kind {
		case EventSweep, EventStorm, EventKill:
			err = e.runSweep(ctx, ev)
		case EventAttack:
			err = e.runAttack(ev)
		case EventSEU:
			err = e.runSEU(ev)
		case EventCrash:
			err = e.runCrash(ev)
		}
		if err != nil {
			return nil, fmt.Errorf("campaign: event %d (%s): %w", i, ev.Kind, err)
		}
		e.sampleHeap(ev)
	}
	e.auditMetrics()
	rep := e.led.report(e.sc, time.Since(start))
	mCampaignViolations.Add(uint64(len(rep.Violations)))
	obs.Logger().Info("campaign done", "events", rep.Events, "sweeps", rep.Sweeps,
		"violations", len(rep.Violations), "heap_peak_mb", rep.HeapPeakBytes>>20)
	return rep, nil
}

func (e *Engine) captureBaseline() {
	e.baseline = metricBaseline{
		sweeps:    cmSweeps.Value(),
		completed: make(map[string]uint64, len(auditVerdicts)),
	}
	for _, v := range auditVerdicts {
		e.baseline.completed[v] = cmSweepCompleted.With(v).Value()
	}
}

// stormRates are the per-message fault probabilities of a storm tier.
// Stall-class faults (drop, corrupt, reorder — each costs a retry
// timeout) are kept rare enough that a SmallLX protocol run stays fast
// and retry budgets are effectively never exhausted by the lottery
// alone; scripted resets are the deterministic Unreachable generator.
func stormRates(heavy bool) channel.FaultConfig {
	cfg := channel.FaultConfig{
		DropProb:    0.0010,
		DupProb:     0.0100,
		CorruptProb: 0.0010,
		ReorderProb: 0.0005,
		DelayProb:   0.0200,
		Delay:       time.Millisecond,
		// The injected no-op clock exercises the delay path without
		// wall-clock races deciding whether a delayed message beats a
		// retry timer — the determinism contract of the campaign.
		Sleep: func(time.Duration) {},
	}
	if heavy {
		cfg.DropProb *= 2
		cfg.DupProb *= 2
		cfg.CorruptProb *= 2
		cfg.ReorderProb *= 2
		cfg.DelayProb *= 2
	}
	return cfg
}

// retryPolicy is the sweep transport discipline. The timeout is
// deliberately generous for an in-process link: a busy box (8 SmallLX
// sessions, concurrent plan builds, -race, other race-instrumented
// test packages sharing the machine) can stall a scheduler for
// hundreds of milliseconds, and a CPU-starvation timeout must only
// cost a duplicate-tolerated resend, never a verdict. The budget is
// one no storm lottery or load spike plausibly exhausts — Unreachable
// verdicts come from scripted resets, which kill the connection
// outright regardless of timing, so the generosity costs nothing
// there.
func retryPolicy(ev Event, id uint64) attestation.RetryPolicy {
	return attestation.RetryPolicy{
		Timeout:    250 * time.Millisecond,
		MaxRetries: 12,
		Backoff:    2 * time.Millisecond,
		MaxBackoff: 10 * time.Millisecond,
		Seed:       ev.RetrySeed + int64(id),
		Window:     ev.Window,
	}
}

// runSweep executes the three sweep-family events: plain sweeps with
// tampered subsets, fault storms, and mid-flight kills.
func (e *Engine) runSweep(ctx context.Context, ev Event) error {
	tampered := make(map[uint64]bool, len(ev.Tampered))
	for _, id := range ev.Tampered {
		tampered[id] = true
	}
	faulted := make(map[uint64]DeviceFault, len(ev.Faults))
	for _, f := range ev.Faults {
		faulted[f.Device] = f
	}
	cfg := fleet.SweepConfig{
		Concurrency: e.sc.Concurrency,
		Freshness:   ev.Freshness,
		Sessions:    &e.sessions,
		Spans:       e.spans,
	}
	if e.st != nil {
		cfg.Nonces = e.st.Nonces()
	}
	if ev.Freshness == attestation.PerSweep {
		nonce := ev.Nonce
		cfg.Nonce = &nonce
		if e.st != nil {
			// The scheduler's seeded stream never repeats a 64-bit nonce in
			// campaign-length runs, so the journal accepts every pinned
			// sweep nonce — and runCrash later replays this list against the
			// reopened journal as the durability witness.
			e.spentSweepNonces = append(e.spentSweepNonces, nonce)
		}
	}
	sctx := ctx
	var cancel context.CancelFunc
	var started atomic.Int64
	if ev.Kind == EventKill {
		sctx, cancel = context.WithCancel(ctx)
		defer cancel()
	}
	opts := func(id uint64) core.AttestOptions {
		if ev.Kind == EventKill && started.Add(1) == int64(ev.KillAfter)+1 {
			cancel()
		}
		o := core.AttestOptions{}
		o.Opts.Retry = retryPolicy(ev, id)
		if f, ok := faulted[id]; ok {
			fc := stormRates(f.Heavy)
			fc.Seed = f.Seed
			if f.ResetAt >= 0 {
				fc.Script = []channel.FaultOp{{Dir: channel.DirRecv, Index: f.ResetAt, Kind: channel.FaultReset}}
			}
			o.WrapVerifierChannel = func(ep channel.Endpoint) channel.Endpoint {
				return channel.NewFault(ep, fc)
			}
		}
		if tampered[id] {
			sys, _ := e.reg.System(id)
			tgt, err := e.tamperTargetFor(sys)
			if err == nil {
				o.TamperDevice = func(d *prover.Device) {
					d.Fabric.Mem.Frame(tgt.frame)[tgt.word] ^= 1 << uint(tgt.bit)
				}
			}
		}
		return o
	}
	rep, err := e.disp.Sweep(sctx, e.reg, cfg, opts)
	// Join stragglers before the next event: a session abandoned by the
	// kill must not still be driving its device when the next event
	// touches it.
	e.sessions.Wait()
	if err != nil {
		return err
	}
	e.led.sweeps++
	e.led.retries += rep.Retries
	e.led.faults += rep.TransportFaults
	e.led.keysRotated += rep.KeysRotated
	e.led.plansBuilt += rep.PlansBuilt
	e.led.planCacheHits += rep.PlanCacheHits

	for _, res := range rep.Results {
		verdict := res.Verdict()
		e.led.sweepVerdicts[verdict]++
		if ev.Kind == EventKill {
			// Any member of a killed sweep may have finished or been cut
			// off — both are fine; a cancellation manufacturing a verdict
			// is not. Fold the allowed outcomes into one matrix cell so
			// the matrix is identical across reruns regardless of which
			// sessions were in flight at cancel time.
			if verdict == obs.VerdictHealthy || verdict == obs.VerdictUnreachable {
				e.led.count(ExpectInterrupted, VerdictInterruptedOK)
			} else {
				e.led.count(ExpectInterrupted, verdict)
				e.led.violate(ev, res.DeviceID, "cancelled sweep produced %s (err=%v)", verdict, res.Err)
			}
			continue
		}
		expectation, ok := e.classify(tampered[res.DeviceID], faulted, res)
		e.led.count(expectation, verdict)
		if !ok {
			e.led.violate(ev, res.DeviceID, "%s device reported %s (err=%v)", expectation, verdict, res.Err)
		}
	}
	if v := cmSweepInflight.Value(); v != 0 {
		e.led.violate(ev, 0, "in-flight gauge stuck at %d after sweep", v)
	}
	// Un-tamper: the static-partition flip survives the sweep by design,
	// so scrub the tampered members back to golden before the next event
	// builds its expectations.
	for _, id := range ev.Tampered {
		sys, ok := e.reg.System(id)
		if !ok {
			continue
		}
		if err := e.repairDevice(sys); err != nil {
			return fmt.Errorf("repairing tampered device %d: %w", id, err)
		}
	}
	return nil
}

// classify names the expectation row for one non-kill sweep result and
// reports whether the verdict is allowed — the zero-false-verdicts
// invariant:
//
//	clean            → Healthy only
//	tampered         → Compromised only
//	faulted          → Healthy or Unreachable (never Compromised)
//	tampered-faulted → Compromised or Unreachable (never Healthy)
func (e *Engine) classify(tampered bool, faulted map[uint64]DeviceFault, res fleet.DeviceResult) (string, bool) {
	_, isFaulted := faulted[res.DeviceID]
	switch {
	case tampered && isFaulted:
		return ExpectTamperedFaulted, res.Compromised() || res.Unreachable()
	case tampered:
		return ExpectTampered, res.Compromised()
	case isFaulted:
		return ExpectFaulted, res.Healthy() || res.Unreachable()
	default:
		return ExpectClean, res.Healthy()
	}
}

// runAttack replays one registered adversary against one fleet member.
// The verifier must reject the run with a verdict — MAC or masked
// bitstream mismatch — and not through transport-looking noise, which
// is exactly the regression that would let a future adversary hide in
// the Unreachable partition. The device is scrub-repaired afterwards so
// attacks that damage persistent (static-partition) state do not leak
// into later events' expectations.
func (e *Engine) runAttack(ev Event) error {
	sys, ok := e.reg.System(ev.Device)
	if !ok {
		return fmt.Errorf("unknown device %d", ev.Device)
	}
	fn := e.advByKey[ev.Adversary]
	if fn == nil {
		return fmt.Errorf("unknown adversary %q", ev.Adversary)
	}
	res := fn(sys)
	tally := e.led.adversary(ev.Adversary)
	tally.Runs++
	if res.Detected {
		tally.Detected++
		tally.Mechanisms[res.Mechanism]++
	}
	switch {
	case !res.Detected:
		e.led.violate(ev, ev.Device, "adversary %s NOT detected (err=%v)", ev.Adversary, res.Err)
	case res.Err != nil:
		// Detected, but through a protocol/transport failure rather than
		// a verdict: in a fleet sweep this device would have been filed
		// Unreachable or Failed, not Compromised — the bleed the
		// exhaustiveness invariant forbids.
		e.led.violate(ev, ev.Device, "adversary %s detected only via protocol failure: %v", ev.Adversary, res.Err)
	}
	return e.repairDevice(sys)
}

// runSEU is one radiation cycle: normalize the device to its golden
// state, inject seeded upsets, scan — every unmasked injected flip must
// be found — repair, and verify a clean re-scan.
func (e *Engine) runSEU(ev Event) error {
	sys, ok := e.reg.System(ev.Device)
	if !ok {
		return fmt.Errorf("unknown device %d", ev.Device)
	}
	golden, err := sys.Golden(0)
	if err != nil {
		return fmt.Errorf("golden for device %d: %w", ev.Device, err)
	}
	// Normalize first: the device still holds its last sweep's nonce
	// column (and capture bits), so the injected-flip accounting below
	// starts from a known masked-equal state.
	norm := scrub.New(sys.Device.Fabric, golden)
	if _, err := norm.ScrubOnce(); err != nil {
		return fmt.Errorf("normalizing device %d: %w", ev.Device, err)
	}

	rng := rand.New(rand.NewSource(ev.SEUSeed))
	flips := scrub.InjectSEUs(sys.Device.Fabric, rng, ev.Flips)

	// An injected flip is detectable iff its bit survives with odd
	// parity (a position hit twice reverts) and is not a masked capture
	// bit (a real particle does not care, the scrubber cannot see it).
	mask := e.maskFor(sys.Geo)
	parity := make(map[scrub.Flip]bool, len(flips))
	for _, f := range flips {
		parity[f] = !parity[f]
	}
	expected := make(map[scrub.Flip]bool)
	for f, odd := range parity {
		if odd && mask.Frame(f.Frame)[f.Word]&(1<<uint(f.Bit)) != 0 {
			expected[f] = true
		}
	}

	scr := scrub.New(sys.Device.Fabric, golden)
	found, err := scr.Scan()
	if err != nil {
		return fmt.Errorf("scanning device %d: %w", ev.Device, err)
	}
	foundSet := make(map[scrub.Flip]bool, len(found))
	for _, f := range found {
		foundSet[f] = true
	}
	for f := range expected {
		if !foundSet[f] {
			e.led.violate(ev, ev.Device, "scrub missed injected flip frame=%d word=%d bit=%d", f.Frame, f.Word, f.Bit)
		}
	}
	for f := range foundSet {
		if !expected[f] {
			e.led.violate(ev, ev.Device, "scrub found phantom flip frame=%d word=%d bit=%d", f.Frame, f.Word, f.Bit)
		}
	}
	if err := scr.Repair(found); err != nil {
		return fmt.Errorf("repairing device %d: %w", ev.Device, err)
	}
	post, err := scr.Scan()
	if err != nil {
		return fmt.Errorf("re-scanning device %d: %w", ev.Device, err)
	}
	if len(post) != 0 {
		e.led.violate(ev, ev.Device, "%d flips survived repair", len(post))
	}
	e.led.seu.Cycles++
	e.led.seu.Injected += len(flips)
	e.led.seu.Detected += len(found)
	e.led.seu.Repaired += scr.FramesRepaired
	return nil
}

// runCrash simulates a verifier restart: the durable store is closed
// (cleanly, or by abandoning the handles — the SIGKILL shape) and
// reopened, and the registry is rebuilt from the persisted enrollments.
// The ledger-reconciliation invariant: every device resumes at exactly
// its pre-crash key generation and class, and every nonce the journal
// spent before the crash is still refused after it.
func (e *Engine) runCrash(ev Event) error {
	if e.st == nil {
		return fmt.Errorf("crash event without a durable store (crash weight requires state)")
	}
	type devState struct {
		gen   uint64
		class string
	}
	pre := make(map[uint64]devState, e.sc.Fleet)
	for _, id := range e.reg.IDs() {
		sys, _ := e.reg.System(id)
		class, _ := e.reg.ClassOf(id)
		pre[id] = devState{gen: sys.KeyGeneration(), class: class}
	}

	old := e.st
	if ev.CleanClose {
		if err := old.Close(); err != nil {
			return fmt.Errorf("closing state store: %w", err)
		}
	}
	st, err := store.Open(e.stateDir, e.storeOpts)
	if err != nil {
		return fmt.Errorf("reopening state store: %w", err)
	}
	if !ev.CleanClose {
		// The crashed process's handles are abandoned; close them now only
		// to release the file descriptors — everything it appended is
		// already on disk (appends are unbuffered), which is the point.
		old.Close()
	}
	dreg, err := registry.NewDurable(e.sc.Fleet, e.factory, st.Enrollment())
	if err != nil {
		st.Close()
		return fmt.Errorf("rebuilding registry after crash: %w", err)
	}
	e.st, e.reg = st, dreg

	for _, id := range e.reg.IDs() {
		sys, _ := e.reg.System(id)
		class, _ := e.reg.ClassOf(id)
		want := pre[id]
		if got := sys.KeyGeneration(); got != want.gen {
			e.led.violate(ev, id, "restart drifted key generation %d -> %d", want.gen, got)
		}
		if class != want.class {
			e.led.violate(ev, id, "restart drifted class %q -> %q", want.class, class)
		}
	}
	for _, nonce := range e.spentSweepNonces {
		if !e.st.Nonces().Spent(nonce) {
			e.led.violate(ev, 0, "restart lost spent nonce %#016x", nonce)
			continue
		}
		if err := e.st.Nonces().Spend(nonce); !errors.Is(err, store.ErrNonceReplayed) {
			e.led.violate(ev, 0, "restart re-issued spent nonce %#016x (err=%v)", nonce, err)
		}
	}
	e.led.restarts++
	return nil
}

// repairDevice scrub-repairs a device back to its golden content —
// static partition included, which the sweeps' configuration phase
// never rewrites.
func (e *Engine) repairDevice(sys *core.System) error {
	golden, err := sys.Golden(0)
	if err != nil {
		return err
	}
	_, err = scrub.New(sys.Device.Fabric, golden).ScrubOnce()
	return err
}

// findTamperTarget locates (once per geometry, during New) the first
// unmasked configuration bit in the device's static region — see
// tamperTarget for why the flip must not land in the dynamic partition.
func (e *Engine) findTamperTarget(sys *core.System) (tamperTarget, error) {
	if t, ok := e.tamperTargets[sys.Geo.Name]; ok {
		return t, nil
	}
	mask := e.maskFor(sys.Geo)
	for _, f := range fabric.StatRegion(sys.Geo).Frames() {
		mw := mask.Frame(f)
		for w := 0; w < device.FrameWords; w++ {
			if mw[w] != 0 {
				t := tamperTarget{frame: f, word: w, bit: bits.TrailingZeros32(mw[w])}
				e.tamperTargets[sys.Geo.Name] = t
				return t, nil
			}
		}
	}
	return tamperTarget{}, fmt.Errorf("campaign: geometry %s has no unmasked static bit", sys.Geo.Name)
}

// tamperTargetFor is the read-only lookup the concurrent tamper hooks
// use; every geometry's target was precomputed in New, so this never
// mutates the engine.
func (e *Engine) tamperTargetFor(sys *core.System) (tamperTarget, error) {
	if t, ok := e.tamperTargets[sys.Geo.Name]; ok {
		return t, nil
	}
	return tamperTarget{}, fmt.Errorf("campaign: no tamper target for geometry %s", sys.Geo.Name)
}

// maskFor returns the precomputed readback mask of a geometry. Only New
// may call it for a geometry not yet in the map.
func (e *Engine) maskFor(geo *device.Geometry) *fabric.Image {
	if m, ok := e.masks[geo.Name]; ok {
		return m
	}
	m := fabric.GenerateMask(geo)
	e.masks[geo.Name] = m
	return m
}

// sampleHeap enforces the bounded-memory invariant between events.
func (e *Engine) sampleHeap(ev Event) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > e.led.heapPeak {
		e.led.heapPeak = ms.HeapAlloc
	}
	ceiling := uint64(e.sc.HeapCeilingMB) << 20
	if ms.HeapAlloc > ceiling {
		e.led.violate(ev, 0, "heap %d bytes exceeds the %d MiB ceiling", ms.HeapAlloc, e.sc.HeapCeilingMB)
	}
}

// auditMetrics reconciles the live obs sweep counters against the
// campaign ledger — invariant 3. Any drift means the telemetry the
// fleet operator watches no longer describes what the fleet did.
func (e *Engine) auditMetrics() {
	audit := Event{Index: -1}
	if got, want := cmSweeps.Value()-e.baseline.sweeps, uint64(e.led.sweeps); got != want {
		e.led.violate(audit, 0, "metrics audit: sweeps_total advanced by %d, ledger has %d", got, want)
	}
	for _, v := range auditVerdicts {
		got := cmSweepCompleted.With(v).Value() - e.baseline.completed[v]
		if want := uint64(e.led.sweepVerdicts[v]); got != want {
			e.led.violate(audit, 0, "metrics audit: completed{%s} advanced by %d, ledger has %d", v, got, want)
		}
	}
	if v := cmSweepInflight.Value(); v != 0 {
		e.led.violate(audit, 0, "metrics audit: in-flight gauge ends at %d", v)
	}
}

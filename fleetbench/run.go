package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"sacha/internal/obs/span"
)

// setupRepeats is how many times an untraced run builds the whole
// stack (store, fleet, daemon, warm-up sweep); setup_s is the median.
const setupRepeats = 5

// tracedFloor is the sweep floor of each half of a traced run: its
// per-layer numbers are medians and means, not tail percentiles.
const tracedFloor = 4

// Meta is the run metadata recorded with every result.
type Meta struct {
	Commit        string    `json:"commit"`
	GoVersion     string    `json:"go_version"`
	GOMAXPROCS    int       `json:"gomaxprocs"`
	NProc         int       `json:"nproc"`
	Seed          int64     `json:"seed"`
	Seconds       int       `json:"seconds"`
	Trace         bool      `json:"trace"`
	StartedAt     time.Time `json:"started_at"`
	Workload      Workload  `json:"workload"`
	ProvisionSeed int64     `json:"provision_seed"`
	Tamper        uint64    `json:"tamper_device,omitempty"`
	Sweeps        int       `json:"measured_sweeps"`
	Setups        int       `json:"setups"`
}

// Result is one run's full record: what the compare mode reads.
type Result struct {
	Meta      Meta       `json:"meta"`
	Correct   bool       `json:"correct"`
	Attempted int        `json:"attempted"`
	Failed    int        `json:"failed"`
	Wrong     []string   `json:"wrong,omitempty"`
	Metrics   Metrics    `json:"metrics"`
	SpanFile  string     `json:"span_file,omitempty"`
	SelfTimes []SelfTime `json:"self_times,omitempty"`
	// Verdicts are the per-sweep correctness-relevant counts, the
	// determinism witness two runs of one seed must agree on.
	Verdicts []SweepVerdicts `json:"verdicts"`
	// SweepWalls and AttestMS are the raw samples behind the timing
	// percentiles, in sweep order.
	SweepWalls []float64 `json:"sweep_walls_s"`
	AttestMS   []float64 `json:"attest_ms"`
	SetupS     []float64 `json:"setup_s"`
}

// SweepVerdicts is the seed-determined part of one sweep's outcome.
type SweepVerdicts struct {
	Sweep           int               `json:"sweep"`
	PlansBuilt      int               `json:"plans_built"`
	PlanPatches     int               `json:"plan_patches"`
	DeltaApplied    int               `json:"delta_applied"`
	DeltaFallbacks  int               `json:"delta_fallbacks"`
	DeltaUnexpected []uint64          `json:"delta_unexpected"`
	CompromisedIDs  []uint64          `json:"compromised_ids"`
	Verdict         map[string]string `json:"verdict"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	return "unknown"
}

// loop is the measured part of a run: the closed loop's samples.
type loop struct {
	walls    []float64 // POST wall per sweep, s
	cpuMS    []float64 // process CPU time per device, per sweep
	rates    []float64 // devices attested per second of POST wall, per sweep
	devices  int
	attestMS []float64 // largest-geometry session elapsed
	results  []SweepResult
	traces   []*sweepTrace
	phases   []phaseTimes
	verdicts []SweepVerdicts
	bad      int
	wrong    []string
}

func (l *loop) attempted() int {
	n := 0
	for _, r := range l.results {
		n += len(r.Snap.Targets)
	}
	return n
}

// account checks one sweep against the generator and folds it in.
func (l *loop) account(w Workload, s Schedule, i int, res SweepResult) bool {
	exp := s.Expectation(w, i)
	var out Outcome
	if res.Status/100 != 2 {
		out.wrongf("sweep %d: POST answered %d", i, res.Status)
		out.BadDevices = len(exp.Devices)
	} else {
		out = Check(exp, res.Record, res.Snap)
	}
	l.bad += out.BadDevices
	for _, msg := range out.Wrong {
		l.wrong = append(l.wrong, fmt.Sprintf("sweep %d: %s", i, msg))
	}
	v := SweepVerdicts{Sweep: i, PlansBuilt: res.Record.PlansBuilt, PlanPatches: res.Record.PlanPatches,
		DeltaApplied: res.Record.DeltaApplied, DeltaFallbacks: res.Record.DeltaFallbacks,
		DeltaUnexpected: res.Record.DeltaUnexpected, CompromisedIDs: res.Record.CompromisedIDs,
		Verdict: map[string]string{}}
	for _, t := range res.Snap.Targets {
		v.Verdict[t.Target] = t.Verdict
	}
	l.verdicts = append(l.verdicts, v)
	return len(out.Wrong) == 0
}

// runSweeps drives the closed loop for at least dur and at least
// floor sweeps, stopping early at the first wrong sweep.
func runSweeps(k *Stack, w Workload, s Schedule, dur time.Duration, floor int, tr *Tracer) (*loop, error) {
	l := &loop{}
	start := time.Now()
	for i := 1; time.Since(start) < dur || len(l.walls) < floor; i++ {
		in := s.Sweep(i)
		if in.Drift != nil {
			if err := k.InjectDrift(in.Drift); err != nil {
				return nil, err
			}
		}
		if tr != nil {
			tr.beginSweep(i)
		}
		t0, cpu0 := time.Now(), cpuTime()
		res, err := k.Sweep(in)
		if err != nil {
			return nil, err
		}
		cpu := cpuTime() - cpu0
		if tr != nil {
			sw := tr.endSweep(t0, t0.Add(res.Wall))
			var tree struct {
				Traces []traceNode `json:"traces"`
			}
			if err := k.getJSON("/debug/trace?trace="+span.NewTraceID(in.NonceSeed).String(), &tree); err != nil {
				return nil, err
			}
			ph := phaseTimes{}
			collectPhases(tree.Traces, ph)
			tr.importPhases(sw, ph)
			l.traces = append(l.traces, sw)
			l.phases = append(l.phases, ph)
		}
		l.walls = append(l.walls, res.Wall.Seconds())
		l.devices += res.Record.Devices
		if res.Record.Devices > 0 {
			l.cpuMS = append(l.cpuMS, ms(cpu)/float64(res.Record.Devices))
			l.rates = append(l.rates, float64(res.Record.Devices)/res.Wall.Seconds())
		}
		l.results = append(l.results, res)
		for _, t := range res.Snap.Targets {
			var id uint64
			if _, err := fmt.Sscanf(t.Target, "device-%d", &id); err == nil && w.largest(id) && t.ElapsedNS > 0 {
				l.attestMS = append(l.attestMS, float64(t.ElapsedNS)/1e6)
			}
		}
		if !l.account(w, s, i, res) {
			break
		}
	}
	return l, nil
}

// setUp builds a stack and runs its warm-up sweep, returning the
// set-up wall time. The warm-up is checked like any other sweep.
func setUp(w Workload, s Schedule, dir string, tr *Tracer, l *loop) (*Stack, time.Duration, error) {
	t0 := time.Now()
	k, err := NewStack(w, s, dir, tr)
	if err != nil {
		return nil, 0, err
	}
	if tr != nil {
		tr.beginSweep(0)
	}
	ws := time.Now()
	res, err := k.Sweep(s.Sweep(0))
	if tr != nil {
		tr.endSweep(ws, ws.Add(res.Wall))
	}
	if err != nil {
		k.Close()
		return nil, 0, err
	}
	d := time.Since(t0)
	l.results = append(l.results, res)
	l.account(w, s, 0, res)
	return k, d, nil
}

func dirSize(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}

// cpuTime is the process's user+system CPU time so far. Unlike wall
// time it does not include time the host stole from the VM's vCPUs.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// Run executes one workload run. work is a scratch directory owned by
// the run (state dirs live under it); outDir receives the span file.
func Run(w Workload, seed int64, seconds int, traced bool, work, outDir string) (*Result, error) {
	s := NewSchedule(w, seed)
	res := &Result{Meta: Meta{
		Commit: commit(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), Seed: seed, Seconds: seconds, Trace: traced, StartedAt: time.Now().UTC(),
		Workload: w, ProvisionSeed: s.ProvisionSeed, Tamper: s.Tamper,
	}}
	m := Metrics{}
	dur := time.Duration(seconds) * time.Second
	warm := &loop{}
	var l *loop
	if !traced {
		var setups []float64
		var k *Stack
		for r := 0; r < setupRepeats; r++ {
			if k != nil {
				if err := k.Close(); err != nil {
					return nil, err
				}
			}
			// Each set-up starts from a collected heap, not from the
			// previous stack's garbage.
			runtime.GC()
			var d time.Duration
			var err error
			k, d, err = setUp(w, s, filepath.Join(work, fmt.Sprintf("state-%d", r)), nil, warm)
			if err != nil {
				return nil, err
			}
			setups = append(setups, d.Seconds())
		}
		var err error
		l, err = runSweeps(k, w, s, dur, w.minSweeps(), nil)
		if cerr := k.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		res.Meta.Setups = len(setups)
		res.SetupS = setups
		m.set("setup_s", median(setups), "s", len(setups))
		m.set("sweep_s_p50", median(l.walls), "s", len(l.walls))
		// Medians over sweeps, not totals: the shared host has slow
		// episodes of tens of seconds, which a total over the run would
		// average in and a median over many sweeps leaves out.
		m.set("devices_per_s", median(l.rates), "1/s", len(l.rates))
		m.set("cpu_ms_per_device", median(l.cpuMS), "ms", len(l.cpuMS))
		m.set("attest_ms_p50", median(l.attestMS), "ms", len(l.attestMS))
		m.set("attest_ms_p90", quantile(l.attestMS, 0.9), "ms", len(l.attestMS))
		m.set("max_rss_mb", maxRSSMB(), "MB", 1)
	} else {
		var err error
		l, err = tracedRun(w, s, dur, work, outDir, m, res, warm)
		if err != nil {
			return nil, err
		}
	}
	res.Meta.Sweeps = len(l.walls)
	res.Attempted = warm.attempted() + l.attempted()
	res.Failed = warm.bad + l.bad
	res.Wrong = append(warm.wrong, l.wrong...)
	res.Correct = len(res.Wrong) == 0
	res.Verdicts = append(warm.verdicts, l.verdicts...)
	res.SweepWalls, res.AttestMS = l.walls, l.attestMS
	if res.Attempted > 0 {
		m.set("error_rate", float64(res.Failed)/float64(res.Attempted), "ratio", res.Attempted)
	}
	res.Metrics = m
	return res, nil
}

// tracedRun is the per-layer run: an untraced half as the overhead
// baseline, a traced half with every hook armed, then the isolated
// layer timings and the accounting.
func tracedRun(w Workload, s Schedule, dur time.Duration, work, outDir string, m Metrics, res *Result, warm *loop) (*loop, error) {
	half := dur / 2
	k, _, err := setUp(w, s, filepath.Join(work, "state-plain"), nil, warm)
	if err != nil {
		return nil, err
	}
	plain, err := runSweeps(k, w, s, half, tracedFloor, nil)
	if cerr := k.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	warm.bad += plain.bad
	warm.wrong = append(warm.wrong, plain.wrong...)
	warm.results = append(warm.results, plain.results...)

	rec := &Recorder{}
	detail := map[uint64]bool{1: true}
	if w.Mixed {
		detail[2] = true
	}
	tr := newTracer(rec, 1, detail)
	dir := filepath.Join(work, "state-traced")
	k, _, err = setUp(w, s, dir, tr, warm)
	if err != nil {
		return nil, err
	}
	l, err := runSweeps(k, w, s, half, tracedFloor, tr)
	storeOpen, provision := k.StoreOpen, k.Provision
	if cerr := k.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	layerMetrics(w, l, m)
	m.set("registry.provision_ms_per_device", ms(provision)/float64(w.Fleet), "ms", w.Fleet)
	m.set("store.open_ms", ms(storeOpen), "ms", 1)
	m.set("store.journal_bytes", float64(dirSize(dir)), "bytes", 1)

	costs, err := isolatedLayers(rec, m)
	if err != nil {
		return nil, err
	}
	if err := planCosts(w, s, rec, m); err != nil {
		return nil, err
	}
	if err := accounting(s, costs, rec, m); err != nil {
		return nil, err
	}
	tracedP50, plainP50 := median(l.walls), median(plain.walls)
	m.set("trace.overhead_ratio", tracedP50/plainP50, "ratio", len(l.walls)+len(plain.walls))
	m.set("trace.sweep_s_p50_traced", tracedP50, "s", len(l.walls))
	m.set("trace.sweep_s_p50_untraced", plainP50, "s", len(plain.walls))
	m.set("trace.spans", float64(len(rec.spans)), "count", 1)

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	res.SpanFile = filepath.Join(outDir, fmt.Sprintf("%s-seed%d.spans.jsonl", w.Name, s.Seed))
	res.SelfTimes, err = rec.writeSpans(res.SpanFile)
	if err != nil {
		return nil, err
	}
	return l, nil
}

// layerMetrics derives the per-layer metrics of a traced loop.
func layerMetrics(w Workload, l *loop, m Metrics) {
	n := len(l.results)
	conc := min(w.Concurrency, w.Fleet)
	var overhead, sweepMS, busy, queue, spends []float64
	var steals, built, hits, patches, applied, fallbacks, retries, spendErr float64
	for i, r := range l.results {
		rec := r.Record
		overhead = append(overhead, ms(r.Wall)-float64(rec.ElapsedNS)/1e6)
		sweepMS = append(sweepMS, float64(rec.ElapsedNS)/1e6)
		var sessNS int64
		for _, t := range r.Snap.Targets {
			sessNS += t.ElapsedNS
		}
		busy = append(busy, float64(sessNS)/(float64(rec.ElapsedNS)*float64(conc)))
		steals += float64(rec.Steals)
		built += float64(rec.PlansBuilt)
		hits += float64(rec.PlanCacheHits)
		patches += float64(rec.PlanPatches)
		applied += float64(rec.DeltaApplied)
		fallbacks += float64(rec.DeltaFallbacks)
		retries += float64(r.Snap.Retries)
		sw := l.traces[i]
		for _, at := range sw.OptsAt {
			queue = append(queue, float64(at-rec.StartedAt.UnixNano())/1e6)
		}
		for _, d := range sw.Spends {
			spends = append(spends, float64(d.Nanoseconds())/1e3)
		}
		spendErr += float64(sw.SpendErr)
	}
	per := func(x float64) float64 { return x / float64(n) }
	m.set("fleetd.post_overhead_ms", median(overhead), "ms", n)
	m.set("dispatch.sweep_ms", median(sweepMS), "ms", n)
	m.set("dispatch.queue_wait_ms_p50", median(queue), "ms", len(queue))
	m.set("dispatch.busy_ratio", median(busy), "ratio", n)
	m.set("dispatch.steals", per(steals), "count", n)
	m.set("dispatch.plans_built", per(built), "count", n)
	m.set("dispatch.plan_cache_hits", per(hits), "count", n)
	m.set("dispatch.plan_patches", per(patches), "count", n)
	m.set("store.spend_us_p50", median(spends), "us", len(spends))
	m.set("store.spend_us_p90", quantile(spends, 0.9), "us", len(spends))
	m.set("store.spends", per(float64(len(spends))), "count", n)
	m.set("store.spend_errors", spendErr, "count", n)

	var cfg, rb, ck, frames, sent, bsent, brecv, wait []float64
	for i, sw := range l.traces {
		for dev, ph := range l.phases[i] {
			if !w.largest(dev) {
				continue
			}
			cfg = append(cfg, float64(ph["phase:config"].DurationNS)/1e6)
			rb = append(rb, float64(ph["phase:readback"].DurationNS)/1e6)
			ck = append(ck, float64(ph["phase:checksum"].DurationNS)/1e6)
		}
		for _, st := range sw.Sessions {
			if !w.largest(st.Device) {
				continue
			}
			frames = append(frames, float64(st.FramesConfigured))
			sent = append(sent, float64(st.MsgsSent))
			bsent = append(bsent, float64(st.BytesSent))
			brecv = append(brecv, float64(st.BytesRecv))
			wait = append(wait, ms(st.RecvWait))
		}
	}
	m.set("attestation.config_ms", median(cfg), "ms", len(cfg))
	m.set("attestation.readback_ms", median(rb), "ms", len(rb))
	m.set("attestation.checksum_ms", median(ck), "ms", len(ck))
	if applied+fallbacks > 0 {
		m.set("attestation.delta_applied_ratio", applied/(applied+fallbacks), "ratio", int(applied+fallbacks))
	} else {
		m.set("attestation.delta_applied_ratio", 0, "ratio", 0)
	}
	m.set("attestation.delta_sessions", per(applied+fallbacks), "count", n)
	m.set("attestation.frames_configured_per_session", mean(frames), "count", len(frames))
	m.set("attestation.retries", per(retries), "count", n)
	m.set("channel.msgs_sent", mean(sent), "count", len(sent))
	m.set("channel.bytes_sent", mean(bsent), "bytes", len(bsent))
	m.set("channel.bytes_recv", mean(brecv), "bytes", len(brecv))
	m.set("channel.recv_wait_ms", median(wait), "ms", len(wait))
}

// Command sacha-bench measures the attestation data path and emits the
// results as JSON (BENCH_attest.json by default), so the performance
// trajectory — frames/sec, ns/frame, plan-build and plan-cache times — is
// tracked from commit to commit instead of living in scrollback:
//
//	sacha-bench -device TinyLX -delay 1ms -windows 1,4,16 -o BENCH_attest.json
//
// Each configured window size runs one full attestation against an
// in-process prover over a channel.DelayEndpoint with the given one-way
// latency: window 1 is the paper's lockstep exchange (one round trip per
// frame), larger windows pipeline the configuration and readback phases.
// Each run records its wall time and the process CPU time it cost. The
// plan section reports the median of planSamples cold attestation.NewPlan
// builds and of planSamples PlanCache hits, each hit for the spec at a
// nonce other than the cached build's: a hit plus the WithNonce patch,
// the path every sweep takes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sacha/internal/attestation"
	"sacha/internal/channel"
	"sacha/internal/core"
	"sacha/internal/device"
	"sacha/internal/fabric"
	"sacha/internal/netlist"
	"sacha/internal/prover"
)

type phaseResult struct {
	ConfigNS   int64 `json:"config_ns"`
	ReadbackNS int64 `json:"readback_ns"`
	ChecksumNS int64 `json:"checksum_ns"`
	VerdictNS  int64 `json:"verdict_ns"`
}

type runResult struct {
	Window       int         `json:"window"`
	WallNS       int64       `json:"wall_ns"`
	CPUNS        int64       `json:"cpu_ns"`
	Frames       int         `json:"frames"`
	FramesPerSec float64     `json:"frames_per_sec"`
	NSPerFrame   float64     `json:"ns_per_frame"`
	Retries      int         `json:"retries"`
	Accepted     bool        `json:"accepted"`
	Phases       phaseResult `json:"phases"`
}

// planSamples is how many times the plan section times each operation.
const planSamples = 11

type planResult struct {
	Samples     int   `json:"samples"`
	ColdBuildNS int64 `json:"cold_build_ns"`
	CacheHitNS  int64 `json:"cache_hit_ns"`
}

// deltaRun is one delta-mode measurement: the same link and window as a
// baseline full-overwrite run, against a device in a known state —
// warm-healthy (delta applies), cold (admissibility fallback) or
// tampered (scan catches drift, fallback repairs). ConfigSpeedup is the
// config-phase ratio against the full overwrite at the same window; the
// delta config phase includes the Hello negotiation and the scan, so
// the ratio charges delta mode its own overheads.
type deltaRun struct {
	Scenario        string  `json:"scenario"`
	Window          int     `json:"window"`
	WallNS          int64   `json:"wall_ns"`
	ConfigNS        int64   `json:"config_ns"`
	BaselineConfNS  int64   `json:"baseline_config_ns"`
	ConfigSpeedup   float64 `json:"config_speedup"`
	FramesScanned   int     `json:"frames_scanned"`
	FramesRewritten int     `json:"frames_rewritten"`
	FramesSkipped   int     `json:"frames_skipped"`
	Fallback        string  `json:"fallback,omitempty"`
	Compressed      bool    `json:"compressed"`
	Accepted        bool    `json:"accepted"`
}

type benchReport struct {
	Timestamp  string      `json:"timestamp"`
	Device     string      `json:"device"`
	Frames     int         `json:"frames"`
	DelayNS    int64       `json:"delay_one_way_ns"`
	Iterations int         `json:"iterations"`
	Plan       planResult  `json:"plan"`
	Runs       []runResult `json:"runs"`
	Delta      []deltaRun  `json:"delta,omitempty"`
}

func main() {
	devName := flag.String("device", "TinyLX", "device geometry")
	delay := flag.Duration("delay", time.Millisecond, "one-way link latency")
	windows := flag.String("windows", "1,4,16", "comma-separated window sizes to measure")
	iters := flag.Int("iters", 1, "attestations per window size (best wall time is reported)")
	benchDelta := flag.Bool("delta", false, "also measure the delta configuration series (warm-healthy, cold, tampered-4) per window")
	minSpeedup := flag.Float64("delta-min-speedup", 0, "fail unless every warm-healthy delta run beats the full overwrite's config phase by this factor (0 = report only)")
	out := flag.String("o", "BENCH_attest.json", "output file (- for stdout)")
	flag.Parse()

	geo, err := device.ByName(*devName)
	fatal(err)
	app := netlist.Blinker(8)
	const buildID, nonce = 0xD00D, 0xCAFEBABE
	key := prover.RegisterKey{3, 1, 4, 1, 5}

	golden, dyn, err := core.BuildGolden(geo, app, buildID, nonce)
	fatal(err)
	spec := attestation.Spec{Geo: geo, Golden: golden, DynFrames: dyn}

	goldenAt := func(n uint64) (*fabric.Image, error) {
		im, _, err := core.BuildGolden(geo, app, buildID, n)
		return im, err
	}
	planRes, plan, err := measurePlan(spec, goldenAt)
	fatal(err)

	report := benchReport{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Device:     geo.Name,
		Frames:     plan.NumFrames(),
		DelayNS:    delay.Nanoseconds(),
		Iterations: *iters,
		Plan:       planRes,
	}

	for _, tok := range strings.Split(*windows, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(tok))
		fatal(err)
		report.Runs = append(report.Runs, measure(geo, plan, key, buildID, w, *delay, *iters))
	}

	if *benchDelta {
		dspec := spec
		dspec.Delta, dspec.Compress = true, true
		dplan, err := attestation.NewPlan(dspec)
		fatal(err)
		for _, run := range report.Runs {
			for _, scenario := range []string{"warm-healthy", "cold", "tampered-4"} {
				dr := measureDelta(geo, dplan, dyn, key, buildID, run.Window, *delay, *iters, scenario, run.Phases.ConfigNS)
				report.Delta = append(report.Delta, dr)
				if scenario == "warm-healthy" && *minSpeedup > 0 && dr.ConfigSpeedup < *minSpeedup {
					fatal(fmt.Errorf("warm-healthy delta config phase only %.2fx faster than the full overwrite at window %d (bar: %.1fx)",
						dr.ConfigSpeedup, run.Window, *minSpeedup))
				}
			}
		}
	}

	enc, err := json.MarshalIndent(report, "", "  ")
	fatal(err)
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	fatal(os.WriteFile(*out, enc, 0o644))
	fmt.Printf("sacha-bench: wrote %s (%d window sizes, %d frames, %v one-way)\n",
		*out, len(report.Runs), report.Frames, *delay)
}

// measurePlan times planSamples cold NewPlan builds of spec, then
// builds spec into a PlanCache and times planSamples hits, each for the
// spec with goldenAt's image at a nonce other than the cached build's —
// a hit plus the WithNonce patch. It reports the medians and returns
// the cached plan.
func measurePlan(spec attestation.Spec, goldenAt func(nonce uint64) (*fabric.Image, error)) (planResult, *attestation.Plan, error) {
	res := planResult{Samples: planSamples}
	var cold, hit []time.Duration
	for i := 0; i < planSamples; i++ {
		t0 := time.Now()
		if _, err := attestation.NewPlan(spec); err != nil {
			return res, nil, err
		}
		cold = append(cold, time.Since(t0))
	}
	cache := attestation.NewPlanCache(0)
	plan, built, err := cache.GetOrBuild(spec)
	if err != nil {
		return res, nil, err
	}
	if !built {
		return res, nil, fmt.Errorf("first GetOrBuild did not build")
	}
	for i := 0; i < planSamples; i++ {
		nonce := plan.Nonce() ^ uint64(i+1)
		other := spec
		if other.Golden, err = goldenAt(nonce); err != nil {
			return res, nil, err
		}
		t0 := time.Now()
		p, built, err := cache.GetOrBuild(other)
		d := time.Since(t0)
		if err != nil || built || p.Nonce() != nonce {
			return res, nil, fmt.Errorf("GetOrBuild at nonce %#x: built %v, err %v — want a patched cache hit", nonce, built, err)
		}
		hit = append(hit, d)
	}
	res.ColdBuildNS, res.CacheHitNS = median(cold).Nanoseconds(), median(hit).Nanoseconds()
	return res, plan, nil
}

// median returns the middle sample (the upper one of an even count).
func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// measure runs iters attestations at one window size over a fresh delayed
// link per iteration and reports the best wall time — the standard guard
// against scheduler noise in a one-shot benchmark.
func measure(geo *device.Geometry, plan *attestation.Plan, key prover.RegisterKey, buildID uint64, window int, delay time.Duration, iters int) runResult {
	res := runResult{Window: window}
	for it := 0; it < iters; it++ {
		dev, err := prover.New(prover.Config{Geo: geo, BootMem: core.BuildBootMem(geo, buildID), Key: key})
		fatal(err)
		fatal(dev.PowerOn())
		link := channel.NewDelayEndpoint(channel.NewInline(dev.Handler(), channel.SimConfig{}), delay)

		opts := attestation.RunOpts{Key: key}
		opts.Retry = attestation.RetryPolicy{
			Timeout:    4*delay + 250*time.Millisecond,
			MaxRetries: 5,
			Window:     window,
		}
		t0, cpu0 := time.Now(), cpuTime()
		rep, err := plan.Run(link, opts)
		wall, cpu := time.Since(t0), cpuTime()-cpu0
		link.Close()
		fatal(err)

		if res.WallNS == 0 || wall.Nanoseconds() < res.WallNS {
			res.WallNS = wall.Nanoseconds()
			res.CPUNS = cpu.Nanoseconds()
			res.Frames = rep.FramesRead
			res.Retries = rep.Retries
			res.Accepted = rep.Accepted
			res.Phases = phaseResult{
				ConfigNS:   rep.Phases.Config.Nanoseconds(),
				ReadbackNS: rep.Phases.Readback.Nanoseconds(),
				ChecksumNS: rep.Phases.Checksum.Nanoseconds(),
				VerdictNS:  rep.Phases.Verdict.Nanoseconds(),
			}
		}
	}
	res.FramesPerSec = float64(res.Frames) / (float64(res.WallNS) / float64(time.Second))
	res.NSPerFrame = float64(res.WallNS) / float64(res.Frames)
	return res
}

// measureDelta runs iters delta attestations at one window size (see
// deltaSession) and reports the best wall time.
func measureDelta(geo *device.Geometry, deltaPlan *attestation.Plan, dyn []int, key prover.RegisterKey, buildID uint64, window int, delay time.Duration, iters int, scenario string, baselineConfNS int64) deltaRun {
	res := deltaRun{Scenario: scenario, Window: window, BaselineConfNS: baselineConfNS}
	for it := 0; it < iters; it++ {
		_, rep, wall := deltaSession(geo, deltaPlan, dyn, key, buildID, window, delay, scenario)
		if res.WallNS == 0 || wall.Nanoseconds() < res.WallNS {
			res.WallNS = wall.Nanoseconds()
			res.ConfigNS = rep.Phases.Config.Nanoseconds()
			res.FramesScanned = rep.Delta.FramesScanned
			res.FramesRewritten = rep.Delta.FramesRewritten
			res.FramesSkipped = rep.Delta.FramesSkipped
			res.Fallback = rep.Delta.Fallback
			res.Compressed = rep.Compressed
			res.Accepted = rep.Accepted
		}
	}
	if res.ConfigNS > 0 {
		res.ConfigSpeedup = float64(res.BaselineConfNS) / float64(res.ConfigNS)
	}
	return res
}

// deltaSession runs one delta attestation of deltaPlan over a delayed
// link against a fresh device prepared per scenario: warm-healthy
// re-attests a device that just passed a full attestation, cold attests
// a fresh device without the admissibility assertion, tampered-4 flips
// one bit in each of four non-nonce dynamic frames of a warm device. The warm-up (warm; nil when cold) models the previous
// sweep over an undelayed link: the plan's cold fallback under a nonce
// of its own, as sacha-verifier -delta runs it, since under the measured
// nonce both sessions would end in the same MAC.
func deltaSession(geo *device.Geometry, deltaPlan *attestation.Plan, dyn []int, key prover.RegisterKey, buildID uint64, window int, delay time.Duration, scenario string) (warm, rep *attestation.Report, wall time.Duration) {
	dev, err := prover.New(prover.Config{Geo: geo, BootMem: core.BuildBootMem(geo, buildID), Key: key})
	fatal(err)
	fatal(dev.PowerOn())

	if scenario != "cold" {
		warmPlan, err := deltaPlan.WithNonce(^deltaPlan.Nonce())
		fatal(err)
		vrfEP := channel.NewInline(dev.Handler(), channel.SimConfig{})
		warm, err = warmPlan.Run(vrfEP, attestation.RunOpts{Key: key,
			Retry: attestation.RetryPolicy{Timeout: time.Second, MaxRetries: 3, Window: attestation.MaxWindow}})
		fatal(err)
		if !warm.Accepted {
			fatal(fmt.Errorf("delta warm-up attestation rejected"))
		}
		vrfEP.Close()
	}
	if strings.HasPrefix(scenario, "tampered") {
		inRewriteSet := map[int]bool{}
		for _, f := range deltaPlan.DeltaRewriteFrames() {
			inRewriteSet[f] = true
		}
		flips := 4
		for _, f := range dyn {
			if flips == 0 {
				break
			}
			if inRewriteSet[f] {
				continue
			}
			dev.Fabric.Mem.Frame(f)[1] ^= 1 << 11
			flips--
		}
	}

	link := channel.NewDelayEndpoint(channel.NewInline(dev.Handler(), channel.SimConfig{}), delay)
	opts := attestation.RunOpts{Key: key, DeltaWarm: warm != nil,
		Retry: attestation.RetryPolicy{Timeout: 4*delay + 250*time.Millisecond, MaxRetries: 5, Window: window}}
	t0 := time.Now()
	rep, err = deltaPlan.Run(link, opts)
	wall = time.Since(t0)
	link.Close()
	fatal(err)
	return warm, rep, wall
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func fatal(err error) {
	if err != nil {
		log.Fatal("sacha-bench: ", err)
	}
}

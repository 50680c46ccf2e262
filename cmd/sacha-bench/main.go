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
// The plan section reports a cold attestation.NewPlan build against a
// PlanCache hit for the same spec.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"sacha/internal/attestation"
	"sacha/internal/channel"
	"sacha/internal/core"
	"sacha/internal/device"
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
	Frames       int         `json:"frames"`
	FramesPerSec float64     `json:"frames_per_sec"`
	NSPerFrame   float64     `json:"ns_per_frame"`
	Retries      int         `json:"retries"`
	Accepted     bool        `json:"accepted"`
	Phases       phaseResult `json:"phases"`
}

type planResult struct {
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

	// Plan economics: one cold build, then a cache hit for the same spec.
	cache := attestation.NewPlanCache(0)
	t0 := time.Now()
	plan, built, err := cache.GetOrBuild(spec)
	fatal(err)
	cold := time.Since(t0)
	if !built {
		fatal(fmt.Errorf("first GetOrBuild did not build"))
	}
	t0 = time.Now()
	if _, built, err = cache.GetOrBuild(spec); err != nil || built {
		fatal(fmt.Errorf("second GetOrBuild rebuilt (err=%v)", err))
	}
	hit := time.Since(t0)

	report := benchReport{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Device:     geo.Name,
		Frames:     plan.NumFrames(),
		DelayNS:    delay.Nanoseconds(),
		Iterations: *iters,
		Plan:       planResult{ColdBuildNS: cold.Nanoseconds(), CacheHitNS: hit.Nanoseconds()},
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
				dr := measureDelta(geo, plan, dplan, dyn, key, buildID, run.Window, *delay, *iters, scenario, run.Phases.ConfigNS)
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
		t0 := time.Now()
		rep, err := plan.Run(link, opts)
		wall := time.Since(t0)
		link.Close()
		fatal(err)

		if res.WallNS == 0 || wall.Nanoseconds() < res.WallNS {
			res.WallNS = wall.Nanoseconds()
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

// measureDelta runs iters delta attestations at one window size against
// a device prepared per scenario: warm-healthy re-attests a device that
// just passed a full attestation, cold attests a fresh device without
// the admissibility assertion, tampered-4 flips one bit in each of four
// non-nonce dynamic frames of a warm device. The warm-up attestation
// runs over an undelayed link — it models the PREVIOUS sweep, not part
// of the measured session.
func measureDelta(geo *device.Geometry, fullPlan, deltaPlan *attestation.Plan, dyn []int, key prover.RegisterKey, buildID uint64, window int, delay time.Duration, iters int, scenario string, baselineConfNS int64) deltaRun {
	res := deltaRun{Scenario: scenario, Window: window, BaselineConfNS: baselineConfNS}
	inRewriteSet := map[int]bool{}
	for _, f := range deltaPlan.DeltaRewriteFrames() {
		inRewriteSet[f] = true
	}
	for it := 0; it < iters; it++ {
		dev, err := prover.New(prover.Config{Geo: geo, BootMem: core.BuildBootMem(geo, buildID), Key: key})
		fatal(err)
		fatal(dev.PowerOn())

		warm := scenario != "cold"
		if warm {
			vrfEP := channel.NewInline(dev.Handler(), channel.SimConfig{})
			rep, err := fullPlan.Run(vrfEP, attestation.RunOpts{Key: key,
				Retry: attestation.RetryPolicy{Timeout: time.Second, MaxRetries: 3, Window: attestation.MaxWindow}})
			fatal(err)
			if !rep.Accepted {
				fatal(fmt.Errorf("delta warm-up attestation rejected"))
			}
			vrfEP.Close()
		}
		if strings.HasPrefix(scenario, "tampered") {
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
		opts := attestation.RunOpts{Key: key, DeltaWarm: warm,
			Retry: attestation.RetryPolicy{Timeout: 4*delay + 250*time.Millisecond, MaxRetries: 5, Window: window}}
		t0 := time.Now()
		rep, err := deltaPlan.Run(link, opts)
		wall := time.Since(t0)
		link.Close()
		fatal(err)

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

func fatal(err error) {
	if err != nil {
		log.Fatal("sacha-bench: ", err)
	}
}

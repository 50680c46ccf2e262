// Command sacha-verifier drives attestations against TCP provers:
//
//	sacha-verifier -connect 127.0.0.1:4242 -device SmallLX -app blinker16 \
//	               -build 1 -key 000102…0f -nonce 42 -offset 137
//
// The -device, -build and -key values must match the prover's
// provisioning; -app selects the intended application configured into the
// dynamic partition.
//
// By default the verifier runs the fault-tolerant transport: every
// command is wrapped in an idempotent sequence envelope, responses are
// awaited up to -timeout and re-sent up to -retries times with
// exponential backoff from -backoff. -plain disables all of it and
// speaks the paper's bare lab protocol (then -timeout, if set, is
// enforced as a raw per-message socket deadline instead).
//
// -compress negotiates the run-length compressed wire transport per
// session (a Hello capability bit; provers without it transparently get
// the plain packets). -delta attests each prover twice: a full warm-up
// attestation under a fresh nonce of its own establishes the delta
// admissibility precondition in-session, then the delta attestation
// under the target's nonce scans the device and rewrites only the
// nonce-register frames — same verdict, same H_Vrf, a fraction of the
// configuration bytes.
//
// -connect accepts a comma-separated list of provers; they are attested
// through a worker pool of -concurrency connections. All targets share
// one precomputed attestation.Plan — the golden-image work (message
// encoding, mask generation, CAPTURE prediction) is paid once for the
// whole sweep, not per prover. The exit status reflects the whole sweep.
//
// -freshness picks the nonce freshness policy. The default, per-sweep,
// is the paper's protocol: one nonce challenges every prover in the
// sweep. per-device draws a fresh random nonce for each prover and
// patches the shared plan's nonce column per target (Plan.WithNonce), so
// cross-device freshness still costs one plan build. per-device cannot
// be combined with a pinned -nonce, and rotate-key is rejected here: PUF
// re-enrollment needs the in-process fleet (fleet.SweepConfig), not a
// TCP link.
package main

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"sacha/internal/apps"
	"sacha/internal/attestation"
	"sacha/internal/channel"
	"sacha/internal/cliutil"
	"sacha/internal/core"
	"sacha/internal/device"
	"sacha/internal/netlist"
	"sacha/internal/obs"
	"sacha/internal/obs/span"
)

type target struct {
	addr  string
	nonce uint64
	rep   *attestation.Report
	err   error
	wall  time.Duration
}

func main() {
	connect := flag.String("connect", "127.0.0.1:4242", "prover address(es), comma-separated")
	devName := flag.String("device", "SmallLX", "device geometry")
	appName := flag.String("app", "blinker16", "intended application")
	buildID := flag.Uint64("build", 1, "static bitstream build ID")
	keyHex := flag.String("key", "000102030405060708090a0b0c0d0e0f", "enrolled MAC key (32 hex chars)")
	nonce := flag.Uint64("nonce", 0, "attestation nonce (0 = time-based; per-sweep policy only)")
	freshness := flag.String("freshness", "per-sweep", "nonce freshness policy: per-sweep or per-device")
	offset := flag.Int("offset", 0, "readback order offset i")
	batch := flag.Int("batch", 1, "frames per configuration packet (1..4)")
	steps := flag.Uint("steps", 0, "CAPTURE extension: clock the application N cycles and attest its state")
	trace := flag.Bool("trace", false, "print each target's protocol trace to stderr after its run")
	timeout := flag.Duration("timeout", 2*time.Second, "per-message response timeout")
	retries := flag.Int("retries", 5, "re-sends per message before giving up")
	backoff := flag.Duration("backoff", 20*time.Millisecond, "base retry backoff (doubles per retry)")
	plain := flag.Bool("plain", false, "disable the fault-tolerant transport (paper's bare protocol)")
	window := flag.Int("window", 1, "pipelined frames in flight per prover (1 = lockstep; needs the reliable transport)")
	compress := flag.Bool("compress", false, "negotiate the compressed wire transport (provers without the capability get the plain packets)")
	delta := flag.Bool("delta", false, "delta attestation: full warm-up attest per prover, then a scan-first attest that rewrites only the nonce frames")
	concurrency := flag.Int("concurrency", 4, "concurrent connections when attesting several provers")
	obsFlags := cliutil.RegisterObs(flag.CommandLine, "")
	flag.Parse()

	// SACHA_LOG / SACHA_LOG_FORMAT pick level and encoding; the endpoint
	// below serves the matching metric families live during the sweep,
	// plus the causal span trees at /debug/trace{,/perfetto}.
	var tracker *obs.SweepTracker
	var spans *span.Collector
	var extra []obs.Route
	if obsFlags.Enabled() {
		tracker = obs.NewSweepTracker()
		spans = span.NewCollector(0)
		extra = span.Routes(spans)
	}
	_, stopObs, err := obsFlags.Start("sacha-verifier", tracker, extra...)
	fatal(err)
	defer stopObs()

	geo, err := device.ByName(*devName)
	fatal(err)
	app, err := apps.ByName(*appName)
	fatal(err)
	var key [16]byte
	raw, err := hex.DecodeString(*keyHex)
	if err != nil || len(raw) != 16 {
		fatal(fmt.Errorf("key must be 32 hex characters"))
	}
	copy(key[:], raw)

	policy, err := attestation.ParseFreshnessPolicy(*freshness)
	fatal(err)
	if policy == attestation.RotateKey {
		fatal(fmt.Errorf("-freshness rotate-key needs PUF re-enrollment on the prover; it is only available to in-process fleets (fleet.SweepConfig), not a TCP verifier"))
	}
	noncePinned := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "nonce" {
			noncePinned = true
		}
	})
	if policy == attestation.PerDevice && noncePinned {
		fatal(fmt.Errorf("-nonce pins one nonce for every prover, which contradicts -freshness per-device; drop one of the two"))
	}
	if *nonce == 0 {
		*nonce = uint64(time.Now().UnixNano())
	}

	plan, err := sweepPlan(geo, app, *buildID, *nonce, attestation.Spec{
		Offset:      *offset,
		AppSteps:    uint32(*steps),
		ConfigBatch: *batch,
		Compress:    *compress,
		Delta:       *delta,
	})
	fatal(err)

	addrs := strings.Split(*connect, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}

	if tracker != nil {
		begin := make([]obs.SweepTarget, len(addrs))
		for i, addr := range addrs {
			begin[i] = obs.SweepTarget{Name: addr, Class: geo.Name}
		}
		tracker.Begin(begin)
	}
	// One root span covers the CLI sweep; session spans key on the
	// target's 1-based position (the addr itself is a tag).
	root := spans.StartTrace(span.NewTraceID(*nonce), "sweep")
	root.SetTag("targets", fmt.Sprint(len(addrs)))
	root.SetTag("freshness", policy.String())

	targets := make([]target, len(addrs))
	workers := *concurrency
	if workers < 1 {
		workers = 1
	}
	if workers > len(addrs) {
		workers = len(addrs)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range jobs {
				opts := runOptions(key, *plain, *timeout, *retries, *backoff, *window)
				sp := root.DeviceChild(addrs[i], uint64(i)+1)
				if sp == nil && *trace {
					// No obs collector: the trace still needs the session's
					// event record.
					sp = span.NewCollector(1).StartTrace(span.NewTraceID(*nonce), addrs[i])
				}
				sp.SetTag("addr", addrs[i])
				sp.SetTag("worker", fmt.Sprint(worker))
				opts.Span = sp
				targets[i] = attestOne(addrs[i], plan, *nonce, policy, *delta, tracker, worker, opts)
				sp.SetTag("verdict", verdictOf(targets[i]))
				sp.End()
				if *trace {
					printTrace(addrs[i], len(addrs) > 1, sp)
				}
			}
		}(w)
	}
	for i := range addrs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	root.End()

	fmt.Printf("device:            %s\n", geo.Name)
	fmt.Printf("application:       %s\n", *appName)
	fmt.Printf("freshness:         %s\n", policy)
	if policy == attestation.PerSweep {
		fmt.Printf("nonce:             %#x\n", *nonce)
	}
	allOK := true
	for _, tg := range targets {
		if len(addrs) > 1 {
			fmt.Printf("--- %s\n", tg.addr)
		}
		if policy == attestation.PerDevice {
			fmt.Printf("nonce:             %#x\n", tg.nonce)
		}
		if tg.err != nil {
			allOK = false
			if attestation.IsTransport(tg.err) {
				fmt.Printf("verdict:           UNREACHABLE — %v\n", tg.err)
			} else {
				fmt.Printf("verdict:           ERROR — %v\n", tg.err)
			}
			continue
		}
		rep := tg.rep
		fmt.Printf("frames configured: %d\n", rep.FramesConfigured)
		fmt.Printf("frames read back:  %d\n", rep.FramesRead)
		if rep.Compressed {
			fmt.Printf("transport:         compressed\n")
		}
		if rep.Delta.Enabled {
			if rep.Delta.Applied {
				fmt.Printf("delta:             applied — %d scanned, %d rewritten, %d skipped\n",
					rep.Delta.FramesScanned, rep.Delta.FramesRewritten, rep.Delta.FramesSkipped)
			} else {
				fmt.Printf("delta:             fell back to full overwrite (%s)\n", rep.Delta.Fallback)
			}
			if len(rep.Delta.Unexpected) > 0 {
				fmt.Printf("delta drift:       frames %v\n", rep.Delta.Unexpected)
			}
		}
		fmt.Printf("H_Prv == H_Vrf:    %v\n", rep.MACOK)
		fmt.Printf("B_Prv == B_Vrf:    %v\n", rep.ConfigOK)
		fmt.Printf("retries:           %d (%d transport faults)\n", rep.Retries, rep.TransportFaults)
		fmt.Printf("wall time:         %v\n", tg.wall.Round(time.Millisecond))
		fmt.Printf("phases:            config=%v readback=%v checksum=%v verdict=%v\n",
			rep.Phases.Config.Round(time.Microsecond), rep.Phases.Readback.Round(time.Microsecond),
			rep.Phases.Checksum.Round(time.Microsecond), rep.Phases.Verdict.Round(time.Microsecond))
		if rep.Accepted {
			fmt.Println("verdict:           ACCEPTED — device attested")
		} else {
			allOK = false
			fmt.Printf("verdict:           REJECTED (%d mismatching frames)\n", len(rep.Mismatches))
		}
	}
	obsFlags.LingerNow("sacha-verifier")
	if !allOK {
		os.Exit(1)
	}
}

// printTrace writes one target's Fig. 8 protocol trace to stderr as a
// single block, so concurrent targets never interleave their lines.
func printTrace(addr string, header bool, sp *span.Span) {
	var b bytes.Buffer
	if header {
		fmt.Fprintf(&b, "--- %s\n", addr)
	}
	attestation.WriteMilestones(&b, sp.Events())
	os.Stderr.Write(b.Bytes())
}

// sweepPlan builds the one plan of the whole sweep, with the plan-shaping
// options of shape: the pre-encoded messages, the validated readback
// order and the masked (or predicted) comparison frames are shared
// read-only by every worker. The golden image carries the placed nonce
// register at nonce, and the plan is always nonce-patchable: under
// per-device freshness, and for the -delta warm-up, a worker re-nonces
// its own copy with Plan.WithNonce — O(nonce column), not another
// O(fabric) build.
func sweepPlan(geo *device.Geometry, app *netlist.Design, buildID, nonce uint64, shape attestation.Spec) (*attestation.Plan, error) {
	golden, dynFrames, err := core.BuildGolden(geo, app, buildID, nonce)
	if err != nil {
		return nil, err
	}
	shape.Geo, shape.Golden, shape.DynFrames, shape.PatchableNonce = geo, golden, dynFrames, true
	return attestation.NewPlan(shape)
}

func runOptions(key [16]byte, plain bool, timeout time.Duration, retries int, backoff time.Duration, window int) attestation.RunOpts {
	opts := attestation.RunOpts{Key: key}
	if !plain {
		opts.Retry = attestation.RetryPolicy{
			Timeout:    timeout,
			MaxRetries: retries,
			Backoff:    backoff,
			MaxBackoff: 16 * backoff,
			Seed:       time.Now().UnixNano(),
			Window:     window,
		}
	} else if window > 1 {
		fatal(fmt.Errorf("-window needs the reliable transport; drop -plain"))
	}
	return opts
}

func attestOne(addr string, plan *attestation.Plan, nonce uint64, policy attestation.FreshnessPolicy, delta bool, tracker *obs.SweepTracker, worker int, opts attestation.RunOpts) target {
	tg := target{addr: addr, nonce: nonce}
	if tracker != nil {
		tracker.Start(addr)
		defer func() {
			// The CLI sweep is a single shared-plan engine: shard 0, with
			// the pool worker as the /debug/sweep attribution.
			out := obs.SweepOutcome{Verdict: verdictOf(tg), Elapsed: tg.wall, Shard: 0, Worker: worker}
			if tg.rep != nil {
				out.Retries = tg.rep.Retries
				out.TransportFaults = tg.rep.TransportFaults
			}
			if tg.err != nil {
				out.Err = tg.err.Error()
			}
			tracker.Done(addr, out)
		}()
	}
	if policy == attestation.PerDevice {
		// Fresh challenge for this prover only: patch the shared plan's
		// nonce column instead of rebuilding it.
		tg.nonce = rand.Uint64()
		patched, err := plan.WithNonce(tg.nonce)
		if err != nil {
			tg.err = err
			return tg
		}
		plan = patched
	}
	run := func(plan *attestation.Plan, o attestation.RunOpts) (*attestation.Report, error) {
		ep, err := channel.Dial(addr)
		if err != nil {
			// A prover we cannot even dial is the canonical unreachable case —
			// type it like any other transport failure so the sweep reports
			// UNREACHABLE, not a generic error.
			return nil, &attestation.TransportError{Op: "dial " + addr, Attempts: 1, Err: err}
		}
		defer ep.Close()
		var link channel.Endpoint = ep
		if !o.Retry.Enabled() {
			// Plain mode has no retry layer; fall back to raw per-message
			// socket deadlines so a dead prover cannot hang the sweep.
			link = channel.NewDeadline(ep, 2*time.Second, 2*time.Second)
		}
		return plan.Run(link, o)
	}
	start := time.Now()
	if delta {
		// The one-shot CLI has no cross-invocation trust ledger, so the
		// §13 admissibility precondition is established in-session: a full
		// attestation over a first connection, then — only if it accepted —
		// the delta attestation over a second one. The warm-up answers a
		// challenge of its own: under the target's nonce both sessions
		// would end in the same MAC, and the delta verdict would answer a
		// challenge already answered.
		warmPlan, err := plan.WithNonce(rand.Uint64())
		if err != nil {
			tg.err = err
			return tg
		}
		wrep, err := run(warmPlan, opts)
		if err != nil || !wrep.Accepted {
			tg.rep, tg.err = wrep, err
			tg.wall = time.Since(start)
			return tg
		}
		opts.DeltaWarm = true
	}
	tg.rep, tg.err = run(plan, opts)
	tg.wall = time.Since(start)
	return tg
}

// verdictOf maps one target's outcome onto the sweep verdict taxonomy.
func verdictOf(tg target) string {
	switch {
	case tg.err == nil && tg.rep != nil && tg.rep.Accepted:
		return obs.VerdictHealthy
	case tg.err == nil && tg.rep != nil:
		return obs.VerdictCompromised
	case attestation.IsTransport(tg.err):
		return obs.VerdictUnreachable
	default:
		return obs.VerdictFailed
	}
}

func fatal(err error) {
	if err != nil {
		log.Fatal("sacha-verifier: ", err)
	}
}

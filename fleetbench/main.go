// Command fleetbench is the repository benchmark: it drives an
// in-process sacha-fleetd daemon over its HTTP control API in a closed
// loop and reports end-to-end and per-layer metrics. See README.md.
//
//	fleetbench -workload fleet-delta -seed 1 -seconds 45 -trace 0
//	fleetbench -compare -base DIR -head DIR
//	fleetbench -spread DIR
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// logOut receives the human-readable diagnostics; stdout ends with the
// one-line JSON result.
var logOut io.Writer = os.Stderr

// endToEnd are the metrics an untraced run reports on its last line.
var endToEnd = []string{
	"setup_s", "sweep_s_p50", "devices_per_s", "cpu_ms_per_device", "attest_ms_p50", "attest_ms_p90", "max_rss_mb",
}

// perLayer are the metrics a traced run reports on its last line.
var perLayer = []string{
	"error_rate",
	"fleetd.post_overhead_ms",
	"dispatch.sweep_ms", "dispatch.queue_wait_ms_p50", "dispatch.busy_ratio", "dispatch.steals",
	"dispatch.plans_built", "dispatch.plan_cache_hits", "dispatch.plan_patches",
	"registry.provision_ms_per_device",
	"store.spend_us_p50", "store.spend_us_p90", "store.spends", "store.spend_errors",
	"store.open_ms", "store.journal_bytes",
	"attestation.config_ms", "attestation.readback_ms", "attestation.checksum_ms",
	"attestation.delta_applied_ratio", "attestation.delta_sessions",
	"attestation.frames_configured_per_session", "attestation.retries",
	"attestation.plan_build_ms", "attestation.plan_cache_hit_us", "attestation.with_nonce_us",
	"channel.msgs_sent", "channel.bytes_sent", "channel.bytes_recv", "channel.recv_wait_ms",
	"aescore.block_ns", "cmac.update_frame_us",
	"prover.handle_config_us", "prover.handle_readback_us",
	"icap.write_frame_us", "icap.read_frame_us",
	"fabric.readback_frame_ns",
	"protocol.decode_config_ns", "protocol.encode_framedata_ns", "protocol.decode_framedata_ns",
	"ethsim.marshal_frame_ns", "ethsim.unmarshal_frame_ns",
	"compress.encode_frame_us", "compress.decode_frame_us", "compress.ratio",
	"accounting.explained_ratio", "accounting.explained_ms", "accounting.session_ms", "accounting.residue_ms",
	"trace.overhead_ratio", "trace.sweep_s_p50_traced", "trace.sweep_s_p50_untraced", "trace.spans",
}

func main() {
	workload := flag.String("workload", "", "workload to run: fleet-delta or link-1ms")
	seed := flag.Int64("seed", 1, "workload seed: every generated input derives from it")
	seconds := flag.Int("seconds", 20, "measured closed-loop duration (a traced run splits it between its untraced and traced halves)")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics, span file and accounting")
	work := flag.String("work", ".bench_build", "directory for scratch state and results")
	compare := flag.Bool("compare", false, "compare two result directories (-base, -head) instead of running")
	base := flag.String("base", "", "compare: baseline result directory")
	head := flag.String("head", "", "compare: candidate result directory")
	spread := flag.String("spread", "", "print the quartile spread of every end-to-end metric over a result directory")
	spec := flag.String("benchmark", "BENCHMARK.json", "benchmark spec holding the metric bounds")
	flag.Parse()

	switch {
	case *compare:
		fatal(Compare(os.Stdout, *spec, *base, *head))
		return
	case *spread != "":
		fatal(Spread(os.Stdout, *spec, *spread))
		return
	}
	w, err := lookupWorkload(*workload)
	fatal(err)
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	runDir := filepath.Join(*work, fmt.Sprintf("run-%d", os.Getpid()))
	outDir := filepath.Join(*work, "results")
	res, err := Run(w, *seed, *seconds, *trace == 1, runDir, outDir)
	if rerr := os.RemoveAll(runDir); err == nil {
		err = rerr
	}
	fatal(err)

	fatal(os.MkdirAll(outDir, 0o755))
	data, err := json.MarshalIndent(res, "", "  ")
	fatal(err)
	path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.json", w.Name, *seed, *trace))
	fatal(os.WriteFile(path, data, 0o644))

	names := endToEnd
	if *trace == 1 {
		names = perLayer
	}
	report(os.Stdout, res, names, path)
	if !res.Correct {
		os.Exit(1)
	}
}

// report prints the human-readable table (every metric with unit and
// sample count) and, last, the one-line JSON result.
func report(out io.Writer, res *Result, names []string, path string) {
	for _, msg := range res.Wrong {
		fmt.Fprintln(logOut, "WRONG:", msg)
	}
	if res.SpanFile != "" {
		fmt.Fprintf(logOut, "span file: %s\nself time by span name (ms):\n", res.SpanFile)
		for i, s := range res.SelfTimes {
			if i == 15 {
				break
			}
			fmt.Fprintf(logOut, "  %-36s n=%-7d total %10.2f  self %10.2f\n", s.Name, s.Count, s.TotalMS, s.SelfMS)
		}
	}
	fmt.Fprintf(out, "# %s seed=%d trace=%v sweeps=%d commit=%s go=%s GOMAXPROCS=%d nproc=%d result=%s\n",
		res.Meta.Workload.Name, res.Meta.Seed, res.Meta.Trace, res.Meta.Sweeps, res.Meta.Commit,
		res.Meta.GoVersion, res.Meta.GOMAXPROCS, res.Meta.NProc, path)
	type kv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := map[string]kv{}
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(out, "%-44s %14.6g %-6s n=%d\n", name, m.Value, m.Unit, m.Samples)
		last[name] = kv{m.Value, m.Unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   res.Correct,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   last,
	})
	fmt.Fprintln(out, string(line))
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
}

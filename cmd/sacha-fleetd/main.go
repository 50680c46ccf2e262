// Command sacha-fleetd runs the fleet coordinator: a long-lived daemon
// that provisions an in-process mixed-geometry fleet, sweeps it through
// the sharded dispatcher, and exposes a JSON control API on the
// observability endpoint:
//
//	sacha-fleetd -fleet 32 -shards 4 -freshness per-device \
//	             -obs-addr 127.0.0.1:9090 -every 30s -jitter 5s
//
//	curl -X POST localhost:9090/fleet/sweep      # trigger a sweep
//	curl localhost:9090/fleet/status             # daemon + last sweep
//	curl localhost:9090/fleet/sweeps             # sweep history
//	curl localhost:9090/fleet/devices            # membership + shards
//	curl localhost:9090/debug/sweep              # live per-device rows
//	curl localhost:9090/debug/trace              # causal span trees (JSON)
//	curl localhost:9090/debug/trace/perfetto     # Chrome trace_event export
//	curl localhost:9090/fleet/flightrecords      # non-Healthy post-mortems
//
// -every enables continuous re-attestation: every device class gets
// its own scheduler loop with that cadence (plus up to -jitter of
// seeded spread, so classes de-synchronize). Without -every the daemon
// sweeps only on POST /fleet/sweep.
//
// On SIGINT/SIGTERM the daemon drains gracefully: the API refuses new
// sweeps with 503, the scheduler stops firing, the in-flight sweep,
// scheduled or not, finishes (or, past -drain-grace,
// is cancelled and its running sessions stop within one message), and
// the process exits 0 once no session is left.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sacha/internal/attestation"
	"sacha/internal/channel"
	"sacha/internal/cliutil"
	"sacha/internal/core"
	"sacha/internal/device"
	"sacha/internal/fleet"
	"sacha/internal/fleet/dispatch"
	"sacha/internal/fleet/fleetd"
	"sacha/internal/fleet/registry"
	"sacha/internal/fleet/scheduler"
	"sacha/internal/netlist"
	"sacha/internal/obs"
	"sacha/internal/obs/span"
	"sacha/internal/prover"
	"sacha/internal/store"
)

func main() {
	fleetSize := flag.Int("fleet", 16, "fleet size (odd IDs TinyLX, even SmallLX)")
	seed := flag.Int64("seed", 1, "fleet provisioning seed (per-device PUF/SRAM state derives from it)")
	buildID := flag.Uint64("build", 0xF1EE7, "static bitstream build ID shared by the fleet")
	shards := flag.Int("shards", 4, "verifier shards (class-affinity routed, work-stealing)")
	planCache := flag.Int("plan-cache", 8, "per-shard plan-cache capacity (0 disables; warm sweeps then rebuild plans)")
	concurrency := flag.Int("concurrency", fleet.DefaultConcurrency, "attestation sessions in flight across all shards")
	freshness := flag.String("freshness", "per-device", "nonce freshness policy: per-sweep, per-device or rotate-key")
	timeout := flag.Duration("device-timeout", 0, "per-device attestation deadline (0 = none)")
	every := flag.Duration("every", 0, "re-attest each device class on this cadence (0 = API-triggered sweeps only)")
	jitter := flag.Duration("jitter", 0, "seeded per-class cadence spread added to -every")
	compress := flag.Bool("compress", false, "negotiate the compressed wire transport per session")
	delta := flag.Bool("delta", false, "delta configuration: scan warm devices and rewrite only their nonce frames (first sweep per device is a full overwrite)")
	history := flag.Int("history", 64, "sweep records retained for /fleet/sweeps")
	spans := flag.Bool("spans", true, "collect causal span traces (served at /debug/trace and /debug/trace/perfetto)")
	spanCap := flag.Int("span-cap", span.DefaultCap, "span collector retention (spans; oldest traces evicted)")
	flightDir := flag.String("flight-dir", "", "flight-recorder artifact directory (empty = in-memory records only)")
	flightMax := flag.Int("flight-max", span.DefaultMaxRecords, "flight records retained (memory and on disk)")
	tamper := flag.Int64("tamper", -1, "flip one dynamic-frame bit on this device ID before every readback (demo/smoke: yields a Compromised verdict and a flight record)")
	drainGrace := flag.Duration("drain-grace", 30*time.Second, "shutdown bound for the in-flight sweep before it is cancelled (0 = wait)")
	stateDir := flag.String("state-dir", "", "durable state directory: enrollment store + anti-replay nonce journal survive restarts (empty = in-memory only)")
	fsyncPolicy := flag.String("fsync", "always", "state-dir durability policy: always (fsync per append) or batch (fsync on snapshot/close)")
	nonceTTL := flag.Duration("nonce-ttl", 24*time.Hour, "spent-nonce retention; keep at or above the key-rotation cadence (0 = never expire)")
	linkDelay := flag.Duration("link-delay", 0, "one-way verifier-link latency added per message (0 = none)")
	obsFlags := cliutil.RegisterObs(flag.CommandLine, "127.0.0.1:9090")
	flag.Parse()

	policy, err := attestation.ParseFreshnessPolicy(*freshness)
	fatal(err)

	// The in-process fleet mirrors the campaign harness's layout: mixed
	// TinyLX/SmallLX geometries and DynPart-PUF keys, so every freshness
	// policy (rotate-key included) is exercisable, and two classes give
	// the affinity router something to route.
	factory := func(id uint64) (*core.System, error) {
		geo := device.TinyLX()
		if id%2 == 0 {
			geo = device.SmallLX()
		}
		return core.NewSystem(core.Config{
			Geo:        geo,
			App:        netlist.Blinker(8),
			KeyMode:    core.KeyDynPUF,
			DeviceID:   id,
			BuildID:    *buildID,
			LabLatency: -1,
			Seed:       *seed*0x1000193 + int64(id),
		})
	}

	// With -state-dir the fleet boots through the durable registry: key
	// generations resume from the enrollment store (RotateKey bumps are
	// journaled before the new key serves) and every issued nonce is
	// spent against the on-disk anti-replay journal.
	var (
		reg  registry.Registry
		st   *store.Store
		dreg *registry.Durable
	)
	if *stateDir != "" {
		pol, err := store.ParseSyncPolicy(*fsyncPolicy)
		fatal(err)
		st, err = store.Open(*stateDir, store.Options{Sync: pol, NonceTTL: *nonceTTL})
		fatal(err)
		dreg, err = registry.NewDurable(*fleetSize, factory, st.Enrollment())
		fatal(err)
		reg = dreg
	} else {
		sreg, err := registry.New(*fleetSize, factory)
		fatal(err)
		reg = sreg
	}

	template := fleet.SweepConfig{
		Concurrency:      *concurrency,
		PerDeviceTimeout: *timeout,
		Freshness:        policy,
		Compress:         *compress,
	}
	if st != nil {
		template.Nonces = st.Nonces()
	}
	if *delta {
		// The ledger lives for the daemon's lifetime: warmth recorded by
		// one sweep admits the delta path in the next, which is what makes
		// the continuous re-attestation loops cheap after their first pass.
		// A durable registry persists the warmth, so the loops stay cheap
		// across restarts too.
		template.Delta = true
		if dreg != nil {
			template.Trust = dreg.Ledger()
		} else {
			template.Trust = registry.NewTrustLedger()
		}
	}
	if *spans {
		template.Spans = span.NewCollector(*spanCap)
	}
	if *spans || *flightDir != "" {
		rec, err := span.NewRecorder(*flightDir, *flightMax, nil)
		fatal(err)
		template.Flight = rec
	}

	var attestOpts func(uint64) core.AttestOptions
	if *tamper >= 0 {
		bad := uint64(*tamper)
		attestOpts = func(id uint64) core.AttestOptions {
			if id != bad {
				return core.AttestOptions{}
			}
			sys, ok := reg.System(id)
			if !ok {
				return core.AttestOptions{}
			}
			return core.AttestOptions{TamperDevice: func(d *prover.Device) {
				d.Fabric.Mem.Frame(sys.DynFrames()[1])[2] ^= 4
			}}
		}
	}
	if *linkDelay > 0 {
		// Real-time link latency (the crash-recovery rig uses it to hold a
		// sweep in flight long enough to SIGKILL the daemon mid-sweep).
		base := attestOpts
		delay := *linkDelay
		attestOpts = func(id uint64) core.AttestOptions {
			var o core.AttestOptions
			if base != nil {
				o = base(id)
			}
			o.WrapVerifierChannel = func(ep channel.Endpoint) channel.Endpoint {
				return channel.NewDelayEndpoint(ep, delay)
			}
			return o
		}
	}

	daemon := fleetd.New(fleetd.Config{
		Registry:   reg,
		Dispatcher: dispatch.New(dispatch.Config{Shards: *shards, PlanCacheSize: *planCache}),
		Template:   template,
		Opts:       attestOpts,
		Scheduler: scheduler.Config{
			Default: scheduler.Cadence{Every: *every, Jitter: *jitter},
			Seed:    *seed,
		},
		History:    *history,
		DrainGrace: *drainGrace,
	})

	bound, stopObs, err := obsFlags.Start("sacha-fleetd", daemon.Tracker(), daemon.Routes()...)
	fatal(err)
	defer stopObs()
	if bound != nil {
		fmt.Fprintf(os.Stderr, "sacha-fleetd: fleet control API on http://%s/fleet/{devices,sweeps,sweep,status}\n", bound)
	}
	obs.Logger().Info("fleetd up", "fleet", *fleetSize, "shards", *shards,
		"freshness", policy.String(), "every", *every, "obs", obsFlags.Addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	daemon.Run(ctx)
	if st != nil {
		// The drain has waited out every sweep, and with it every
		// session; flush and close the state files so the final appends
		// are durable before exit.
		fatal(st.Close())
	}
	fmt.Fprintln(os.Stderr, "sacha-fleetd: drained, exiting")
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "sacha-fleetd:", err)
		os.Exit(1)
	}
}

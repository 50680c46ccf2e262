// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus the baseline and the ablations called out in
// DESIGN.md. Quantities the paper reports (durations, counts, fractions)
// are emitted as custom benchmark metrics so `go test -bench` regenerates
// the evaluation in one run.
package sacha_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"sacha/internal/apps"
	"sacha/internal/attack"
	"sacha/internal/attestation"
	"sacha/internal/channel"
	"sacha/internal/compress"
	"sacha/internal/core"
	"sacha/internal/cpu"
	"sacha/internal/device"
	"sacha/internal/ethsim"
	"sacha/internal/fabric"
	"sacha/internal/fleet"
	"sacha/internal/fleet/dispatch"
	"sacha/internal/fleet/registry"
	"sacha/internal/hwattest"
	"sacha/internal/netlist"
	"sacha/internal/obs/span"
	"sacha/internal/pose"
	"sacha/internal/prover"
	"sacha/internal/resources"
	"sacha/internal/scrub"
	"sacha/internal/timing"
	"sacha/internal/verifier"
)

func newSmall(b *testing.B, mutate func(*core.Config)) *core.System {
	b.Helper()
	cfg := core.Config{
		Geo:        device.SmallLX(),
		App:        netlist.Blinker(16),
		KeyMode:    core.KeyStatPUF,
		DeviceID:   1,
		LabLatency: -1,
		Seed:       1,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkTable2Resources regenerates Table 2 and reports the StatPart
// occupancy fraction (paper: < 9%).
func BenchmarkTable2Resources(b *testing.B) {
	geo := device.XC6VLX240T()
	var rows []resources.Usage
	for i := 0; i < b.N; i++ {
		rows = resources.Table2(geo)
	}
	b.ReportMetric(float64(rows[1].CLB), "statpart-CLBs")
	b.ReportMetric(float64(rows[2].CLB), "mac-CLBs")
	b.ReportMetric(resources.StatPartFraction(geo)*100, "statpart-%")
}

// BenchmarkTable3Actions regenerates the per-action timings of Table 3 as
// metrics (ns each).
func BenchmarkTable3Actions(b *testing.B) {
	m := timing.NewModel(device.XC6VLX240T())
	var rows []timing.Row
	for i := 0; i < b.N; i++ {
		rows = m.Table3()
	}
	for _, row := range rows {
		b.ReportMetric(float64(row.Time.Nanoseconds()), fmt.Sprintf("A%d-ns", int(row.Action)))
	}
}

// BenchmarkTable4Protocol regenerates the protocol totals of Table 4
// (paper: theoretical 1.443 s, measured 28.5 s) and the JTAG reference.
func BenchmarkTable4Protocol(b *testing.B) {
	m := timing.NewModel(device.XC6VLX240T())
	var tab timing.Table4
	for i := 0; i < b.N; i++ {
		tab = m.Table4()
	}
	b.ReportMetric(tab.Theoretical.Seconds(), "theoretical-s")
	b.ReportMetric(tab.Measured.Seconds(), "measured-s")
	b.ReportMetric(float64(tab.Commands), "commands")
	b.ReportMetric(m.JTAGConfigTime().Seconds(), "jtag-ref-s")
}

// BenchmarkFig8Protocol runs the full SACHa protocol of Fig. 8 (honest
// attestation) end to end on the small device, reporting the virtual lab
// duration scaled to the XC6VLX240T-equivalent message count.
func BenchmarkFig8Protocol(b *testing.B) {
	sys := newSmall(b, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sys.Attest(core.AttestOptions{})
		if err != nil || !rep.Accepted {
			b.Fatalf("attestation failed: %v", err)
		}
	}
	b.ReportMetric(float64(sys.Geo.NumFrames()), "frames")
}

// BenchmarkFig9Trace runs the low-level Fig. 9 sequence with a non-zero
// readback offset, recording every protocol step on a session span.
func BenchmarkFig9Trace(b *testing.B) {
	sys := newSmall(b, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := span.NewCollector(1).StartTrace(1, "fig9")
		rep, err := sys.Attest(core.AttestOptions{
			Opts: verifier.Options{Offset: 137, Span: sp},
		})
		if err != nil || !rep.Accepted {
			b.Fatalf("attestation failed: %v", err)
		}
	}
}

// BenchmarkSecurityMatrix replays the §7.2 adversary suite (five attacks,
// each a full protocol run against a fresh system).
func BenchmarkSecurityMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := attack.All(func() (*core.System, error) {
			return core.NewSystem(core.Config{
				Geo:        device.SmallLX(),
				App:        netlist.Blinker(8),
				KeyMode:    core.KeyStatPUF,
				DeviceID:   1,
				LabLatency: -1,
				Seed:       2,
			})
		})
		if err != nil {
			b.Fatal(err)
		}
		detected := 0
		for _, r := range results {
			if r.Detected {
				detected++
			}
		}
		if detected != len(results) {
			b.Fatalf("only %d/%d adversaries detected", detected, len(results))
		}
		b.ReportMetric(float64(detected), "detected")
	}
}

// BenchmarkCaptureAttestation exercises the §8 future-work extension:
// register-state attestation with verifier-side prediction.
func BenchmarkCaptureAttestation(b *testing.B) {
	sys := newSmall(b, func(c *core.Config) { c.App = netlist.LFSR(16, []int{0, 2, 3, 5}) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sys.Attest(core.AttestOptions{Opts: verifier.Options{AppSteps: 41}})
		if err != nil || !rep.Accepted {
			b.Fatalf("capture attestation failed: %v", err)
		}
	}
}

// BenchmarkSignatureMode exercises the §8 signature extension (no
// pre-shared key).
func BenchmarkSignatureMode(b *testing.B) {
	sys := newSmall(b, func(c *core.Config) { c.EnableSignature = true })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sys.Attest(core.AttestOptions{Opts: verifier.Options{SignatureMode: true}})
		if err != nil || !rep.Accepted {
			b.Fatalf("signature attestation failed: %v", err)
		}
	}
}

// BenchmarkPoSEBaseline runs the Perito–Tsudik proofs-of-secure-erasure
// baseline the SACHa design transplants to FPGAs.
func BenchmarkPoSEBaseline(b *testing.B) {
	key := [16]byte{1}
	code, err := cpu.Assemble(`
		LDI r0, 1
		OUT r0, 0
		HALT
	`)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	v := &pose.Verifier{Key: key, MemWords: 4096}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := pose.NewDevice(4096, key)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := v.SecureCodeUpdate(d, code, rng)
		if err != nil || !rep.Accepted {
			b.Fatalf("PoSE round failed: %v", err)
		}
	}
	b.ReportMetric(pose.ProtocolTime(4096, 1_000_000, 1_000_000).Seconds()*1e3, "modelled-ms")
}

// BenchmarkCombinedHwSw runs the Fig. 1 combined scenario: SACHa
// self-attestation plus software attestation of the µP.
func BenchmarkCombinedHwSw(b *testing.B) {
	program, err := cpu.Assemble(`
		LDI r0, 7
		OUT r0, 0
		HALT
	`)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := hwattest.New(core.Config{
		Geo:        device.SmallLX(),
		App:        netlist.Counter(8),
		LabLatency: -1,
		Seed:       4,
	}, program, 256)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sys.Attest(core.AttestOptions{})
		if err != nil || !rep.Accepted {
			b.Fatalf("combined attestation failed: %v", err)
		}
	}
}

// BenchmarkAblationFramesPerPacket sweeps the §6.1 trade-off between the
// StatPart BRAM buffer size and the number of communication steps.
func BenchmarkAblationFramesPerPacket(b *testing.B) {
	m := timing.NewModel(device.XC6VLX240T())
	for _, k := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("frames=%d", k), func(b *testing.B) {
			var pts []timing.BatchPoint
			for i := 0; i < b.N; i++ {
				pts = m.BatchSweep([]int{k})
			}
			p := pts[0]
			b.ReportMetric(float64(p.BufferBytes), "buffer-B")
			b.ReportMetric(float64(p.Commands), "commands")
			b.ReportMetric(p.Measured.Seconds(), "measured-s")
		})
	}
}

// BenchmarkAblationDeviceSize sweeps protocol totals across device sizes.
func BenchmarkAblationDeviceSize(b *testing.B) {
	for _, geo := range []*device.Geometry{device.SmallLX(), device.XC6VLX240T(), device.BigLX()} {
		b.Run(geo.Name, func(b *testing.B) {
			m := timing.NewModel(geo)
			var tab timing.Table4
			for i := 0; i < b.N; i++ {
				tab = m.Table4()
			}
			b.ReportMetric(float64(geo.NumFrames()), "frames")
			b.ReportMetric(tab.Theoretical.Seconds(), "theoretical-s")
			b.ReportMetric(tab.Measured.Seconds(), "measured-s")
		})
	}
}

// BenchmarkAblationFrameOrder compares the default ascending readback
// order with a random permutation (paper §6.1: any permutation works).
func BenchmarkAblationFrameOrder(b *testing.B) {
	sys := newSmall(b, nil)
	perm := rand.New(rand.NewSource(9)).Perm(sys.Geo.NumFrames())
	b.Run("ascending", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep, err := sys.Attest(core.AttestOptions{Opts: verifier.Options{Offset: 7}})
			if err != nil || !rep.Accepted {
				b.Fatal(err)
			}
		}
	})
	b.Run("permuted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep, err := sys.Attest(core.AttestOptions{Opts: verifier.Options{Permutation: perm}})
			if err != nil || !rep.Accepted {
				b.Fatal(err)
			}
		}
	})
	b.Run("batched-config", func(b *testing.B) {
		// The real-protocol counterpart of the frames-per-packet
		// ablation: four frames per ICAP_config_batch packet.
		for i := 0; i < b.N; i++ {
			rep, err := sys.Attest(core.AttestOptions{Opts: verifier.Options{ConfigBatch: 4}})
			if err != nil || !rep.Accepted {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationCompression evaluates bitstream compression ([24] in
// the paper) on the golden partial bitstream: the compression ratio, and
// the configuration-phase wire time with compressed ICAP_config payloads.
func BenchmarkAblationCompression(b *testing.B) {
	geo := device.XC6VLX240T()
	golden, dynFrames, err := core.BuildGolden(geo, netlist.Blinker(16), 1, 0x5A5A)
	if err != nil {
		b.Fatal(err)
	}
	var words []uint32
	for _, idx := range dynFrames {
		words = append(words, golden.Frame(idx)...)
	}
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ratio = compress.Ratio(words)
	}
	b.StopTimer()
	rawBytes := len(words) * 4
	b.ReportMetric(ratio, "ratio")
	b.ReportMetric(float64(rawBytes)/1e6, "raw-MB")
	b.ReportMetric(float64(rawBytes)*ratio/1e6, "compressed-MB")
	// Configuration wire time: raw vs compressed payloads at Gigabit.
	raw := ethsim.WireTime(rawBytes)
	comp := ethsim.WireTime(int(float64(rawBytes) * ratio))
	b.ReportMetric(raw.Seconds()*1e3, "wire-raw-ms")
	b.ReportMetric(comp.Seconds()*1e3, "wire-compressed-ms")
}

// BenchmarkScrubCycle measures one full scrub (scan + repair) after a
// burst of injected SEUs — the §2.1.3 readback use case.
func BenchmarkScrubCycle(b *testing.B) {
	geo := device.SmallLX()
	golden, _, err := core.BuildGolden(geo, netlist.Counter(8), 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	fab := fabric.New(geo)
	for i := 0; i < geo.NumFrames(); i++ {
		if err := fab.WriteFrame(i, golden.Frame(i)); err != nil {
			b.Fatal(err)
		}
	}
	s := scrub.New(fab, golden)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scrub.InjectSEUs(fab, rng, 20)
		if _, err := s.ScrubOnce(); err != nil {
			b.Fatal(err)
		}
	}
}

// newBenchFleet provisions an n-member one-class SmallLX registry.
func newBenchFleet(b *testing.B, n int) *registry.Static {
	b.Helper()
	reg, err := registry.New(n, func(id uint64) (*core.System, error) {
		return core.NewSystem(core.Config{
			Geo:        device.SmallLX(),
			App:        netlist.Blinker(8),
			KeyMode:    core.KeyStatPUF,
			DeviceID:   id,
			LabLatency: -1,
			Seed:       int64(id),
		})
	})
	if err != nil {
		b.Fatal(err)
	}
	return reg
}

// BenchmarkFleetSweep attests a small fleet in parallel through a
// one-shard dispatcher.
func BenchmarkFleetSweep(b *testing.B) {
	reg := newBenchFleet(b, 4)
	disp := dispatch.New(dispatch.Config{Shards: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := disp.Sweep(context.Background(), reg, fleet.SweepConfig{}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Healthy) != reg.Size() {
			b.Fatalf("unhealthy fleet: %v", rep.Compromised)
		}
	}
}

// BenchmarkPlanReuse separates the per-class plan build from the
// per-device run on one system: "cold" rebuilds the plan inside every
// attestation (the pre-split behaviour), "shared" builds the plan once
// and drives only per-session Runs — no prediction, no mask generation,
// no message re-encoding in the loop.
func BenchmarkPlanReuse(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		sys := newSmall(b, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, err := sys.Attest(core.AttestOptions{})
			if err != nil || !rep.Accepted {
				b.Fatalf("attestation failed: %v", err)
			}
		}
	})
	b.Run("shared", func(b *testing.B) {
		sys := newSmall(b, nil)
		plan, err := sys.Plan(42, verifier.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, err := sys.AttestWithPlan(plan, core.AttestOptions{})
			if err != nil || !rep.Accepted {
				b.Fatalf("attestation failed: %v", err)
			}
		}
	})
	// shared-delta is the fleet-delta session shape at zero delay: a warm
	// SmallLX device (Blinker(8)) under Compress+Delta, so each session is
	// a compressed scan of the dynamic frames, the nonce-step rewrite and
	// a compressed readback of every frame. Sessions alternate between two
	// nonces, so every rewrite changes the nonce frames.
	b.Run("shared-delta", func(b *testing.B) {
		sys := newSmall(b, func(c *core.Config) { c.App = netlist.Blinker(8) })
		opts := verifier.Options{Compress: true, Delta: true}
		var plans [2]*attestation.Plan
		for i := range plans {
			p, err := sys.Plan(uint64(42+i), opts)
			if err != nil {
				b.Fatal(err)
			}
			plans[i] = p
		}
		if rep, err := sys.AttestWithPlan(plans[1], core.AttestOptions{Opts: opts}); err != nil || !rep.Accepted {
			b.Fatalf("warm-up session failed: %v", err)
		}
		opts.DeltaWarm = true
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, err := sys.AttestWithPlan(plans[i%2], core.AttestOptions{Opts: opts})
			if err != nil {
				b.Fatal(err)
			}
			if !rep.Accepted || !rep.Delta.Applied {
				b.Fatalf("warm delta session: accepted=%v delta=%+v", rep.Accepted, rep.Delta)
			}
		}
	})
}

// BenchmarkFleetPlan sweeps a one-class fleet at a pinned nonce and
// reports the golden-image builds each sweep pays: one per device
// class, not one per device.
func BenchmarkFleetPlan(b *testing.B) {
	reg := newBenchFleet(b, 6)
	disp := dispatch.New(dispatch.Config{Shards: 1})
	nonce := uint64(0xBEEF)
	built := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := disp.Sweep(context.Background(), reg, fleet.SweepConfig{
			Concurrency: 4, Nonce: &nonce,
		}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Healthy) != reg.Size() {
			b.Fatalf("unhealthy fleet: %v", rep.Compromised)
		}
		built = rep.PlansBuilt
	}
	b.ReportMetric(float64(built), "plan-builds/sweep")
}

// BenchmarkPlaceAndDecode measures the golden-image pipeline: place an
// application and functionally decode it from the bits.
func BenchmarkPlaceAndDecode(b *testing.B) {
	geo := device.SmallLX()
	app, err := apps.ByName("lfsr16")
	if err != nil {
		b.Fatal(err)
	}
	region := fabric.AppRegion(geo)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		im := fabric.NewImage(geo)
		if _, err := fabric.PlaceDesign(im, region, app); err != nil {
			b.Fatal(err)
		}
		fab := fabric.New(geo)
		for _, idx := range region.Frames() {
			if err := fab.WriteFrame(idx, im.Frame(idx)); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := fab.Live(region); err != nil {
			b.Fatal(err)
		}
	}
}

// newTinyAttestRig builds the TinyLX plan and a fresh prover/link factory
// for the transport benchmarks: each call of the returned dial function
// boots one honest device, serves it inline on a simulated link and
// wraps that link in a DelayEndpoint with the given one-way latency.
func newTinyAttestRig(b *testing.B, delay time.Duration) (*attestation.Plan, prover.RegisterKey, func() channel.Endpoint) {
	b.Helper()
	geo := device.TinyLX()
	key := prover.RegisterKey{3, 1, 4, 1, 5}
	golden, dyn, err := core.BuildGolden(geo, netlist.Blinker(8), 0xD00D, 0xCAFEBABE)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := attestation.NewPlan(attestation.Spec{Geo: geo, Golden: golden, DynFrames: dyn})
	if err != nil {
		b.Fatal(err)
	}
	dial := func() channel.Endpoint {
		dev, err := prover.New(prover.Config{Geo: geo, BootMem: core.BuildBootMem(geo, 0xD00D), Key: key})
		if err != nil {
			b.Fatal(err)
		}
		if err := dev.PowerOn(); err != nil {
			b.Fatal(err)
		}
		return channel.NewDelayEndpoint(channel.NewInline(dev.Handler(), channel.SimConfig{}), delay)
	}
	return plan, key, dial
}

// BenchmarkWindowedReadback measures the attestation data path over a
// 1 ms one-way link at increasing pipeline depths. Window=1 is the
// paper's lockstep protocol — one round trip per frame — and the
// frames-per-sec metric is the headline: Window=16 sustains well over 5x
// the lockstep rate because up to 16 frames share each round trip.
//
// The "+spans" variants run the same protocol with causal tracing fully
// armed — session span, its protocol step events, phase children — and
// are the tracing overhead budget: frames/sec must stay within 3% of the
// untraced run at the same window (the path is latency-bound, so the
// per-event span cost amortises below measurement noise). With tracing
// disabled (the plain variants) the span hooks are nil and cost zero
// allocations, pinned separately by TestNilSpanZeroAlloc.
func BenchmarkWindowedReadback(b *testing.B) {
	const oneWay = time.Millisecond
	for _, window := range []int{1, 4, 16} {
		for _, traced := range []bool{false, true} {
			name := fmt.Sprintf("window=%d", window)
			if traced {
				name += "+spans"
			}
			b.Run(name, func(b *testing.B) {
				plan, key, dial := newTinyAttestRig(b, oneWay)
				col := span.NewCollector(0)
				root := col.StartTrace(span.NewTraceID(0xBE9C), "bench")
				defer root.End()
				var frames, retries int
				b.ResetTimer()
				start := time.Now()
				for i := 0; i < b.N; i++ {
					ep := dial()
					var k [16]byte = key
					opts := attestation.RunOpts{Key: k, Retry: attestation.RetryPolicy{
						Timeout:    250 * time.Millisecond,
						MaxRetries: 5,
						Window:     window,
					}}
					var sp *span.Span
					if traced {
						sp = root.DeviceChild("bench", uint64(i)+1)
						opts.Span = sp
					}
					rep, err := plan.Run(ep, opts)
					sp.End()
					ep.Close()
					if err != nil {
						b.Fatal(err)
					}
					if !rep.Accepted {
						b.Fatalf("rejected: %+v", rep)
					}
					frames += rep.FramesRead
					retries += rep.Retries
				}
				elapsed := time.Since(start)
				b.ReportMetric(float64(frames)/elapsed.Seconds(), "frames/sec")
				b.ReportMetric(float64(elapsed.Nanoseconds())/float64(frames), "ns/frame")
				b.ReportMetric(float64(retries)/float64(b.N), "retries/run")
			})
		}
	}
}

// BenchmarkPlanCache compares a cold attestation.NewPlan build against a
// PlanCache hit for the same (golden digest, geometry, options) key —
// the sweep-to-sweep saving of the digest-keyed cache.
func BenchmarkPlanCache(b *testing.B) {
	geo := device.TinyLX()
	golden, dyn, err := core.BuildGolden(geo, netlist.Blinker(8), 0xD00D, 0xCAFEBABE)
	if err != nil {
		b.Fatal(err)
	}
	spec := attestation.Spec{Geo: geo, Golden: golden, DynFrames: dyn}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := attestation.NewPlan(spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		cache := attestation.NewPlanCache(0)
		if _, built, err := cache.GetOrBuild(spec); err != nil || !built {
			b.Fatalf("warmup: built=%v err=%v", built, err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, built, err := cache.GetOrBuild(spec)
			if err != nil || built {
				b.Fatalf("cache miss on hit path: built=%v err=%v", built, err)
			}
		}
	})
}

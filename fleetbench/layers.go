package main

import (
	"fmt"
	"time"

	"sacha/internal/aescore"
	"sacha/internal/attestation"
	"sacha/internal/channel"
	"sacha/internal/cmac"
	"sacha/internal/compress"
	"sacha/internal/core"
	"sacha/internal/device"
	"sacha/internal/ethsim"
	"sacha/internal/fabric"
	"sacha/internal/icap"
	"sacha/internal/netlist"
	"sacha/internal/protocol"
	"sacha/internal/prover"
	"sacha/internal/sim"
	"sacha/internal/verifier"
)

// isolatedBatches is the number of timed batches per isolated call;
// the reported cost is the median batch's per-call time.
const isolatedBatches = 15

// timeCall times fn in isolatedBatches batches of n calls and returns
// the median per-call nanoseconds. Each batch is one span named name.
func timeCall(rec *Recorder, name string, n int, fn func(i int) error) (float64, error) {
	per := make([]float64, 0, isolatedBatches)
	for b := 0; b < isolatedBatches; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(b*n + i); err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
		}
		t1 := time.Now()
		rec.add(Span{ID: rec.id(), Sweep: -1, Name: name, Start: t0.UnixNano(), End: t1.UnixNano()})
		per = append(per, float64(t1.Sub(t0).Nanoseconds())/float64(n))
	}
	return median(per), nil
}

// layerCosts are the isolated per-call costs, in nanoseconds.
type layerCosts map[string]float64

// isolatedLayers times the public per-frame functions of each layer on
// a SmallLX golden image, and reports them into m. Per-frame calls
// rotate over the frames a session touches — the dynamic frames for
// configuration, every frame for readback — because the cost depends on
// the frame (its column kind, its content); the reported cost is then
// the session's own frame mix.
func isolatedLayers(rec *Recorder, m Metrics) (layerCosts, error) {
	geo := device.SmallLX()
	golden, dyn, err := core.BuildGolden(geo, netlist.Blinker(8), buildID, 0x5EED)
	if err != nil {
		return nil, err
	}
	all := make([]int, geo.NumFrames())
	for i := range all {
		all[i] = i
	}
	key := [16]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3}

	var (
		frameBytes  [][]byte   // every frame, big-endian, as the MAC absorbs it
		configReqs  [][]byte   // ICAP_config per dynamic frame
		cfgStreams  [][]uint32 // ICAP packet stream per dynamic frame
		readReqs    [][]byte   // ICAP_readback per frame
		rbStreams   [][]uint32 // readback command stream per frame
		frameData   [][]byte   // FrameData per frame
		ethWire     [][]byte   // FrameData inside an Ethernet frame
		compressed  [][]byte   // compressed dynamic frames
		dynWords    []uint32
		ethFrames   []ethsim.Frame
		frameWords  [][]uint32
		dynFrameSet [][]uint32
	)
	for _, idx := range all {
		w := golden.Frame(idx)
		frameWords = append(frameWords, w)
		b := make([]byte, 0, 4*len(w))
		for _, x := range w {
			b = append(b, byte(x>>24), byte(x>>16), byte(x>>8), byte(x))
		}
		frameBytes = append(frameBytes, b)
		req, err := protocol.Readback(idx).Encode()
		if err != nil {
			return nil, err
		}
		readReqs = append(readReqs, req)
		rb, err := icap.ReadbackCmdStream(geo, idx)
		if err != nil {
			return nil, err
		}
		rbStreams = append(rbStreams, rb)
		fd, err := (&protocol.Message{Type: protocol.MsgFrameData, FrameIndex: uint32(idx), Words: w}).Encode()
		if err != nil {
			return nil, err
		}
		frameData = append(frameData, fd)
		ef := ethsim.Frame{Dst: ethsim.MAC{2, 0, 0, 0, 0, 2}, Src: ethsim.MAC{2, 0xFF, 0, 0, 0, 1}, EtherType: 0x88B5, Payload: fd}
		wire, err := ef.Marshal()
		if err != nil {
			return nil, err
		}
		ethFrames = append(ethFrames, ef)
		ethWire = append(ethWire, wire)
	}
	for _, idx := range dyn {
		w := golden.Frame(idx)
		dynFrameSet = append(dynFrameSet, w)
		dynWords = append(dynWords, w...)
		req, err := protocol.Config(idx, w).Encode()
		if err != nil {
			return nil, err
		}
		configReqs = append(configReqs, req)
		st, err := icap.ConfigFrameStream(geo, idx, w)
		if err != nil {
			return nil, err
		}
		cfgStreams = append(cfgStreams, st)
		compressed = append(compressed, compress.Encode(w))
	}

	aes, err := aescore.New(key[:])
	if err != nil {
		return nil, err
	}
	block := make([]byte, 16)
	mac, err := cmac.New(key[:])
	if err != nil {
		return nil, err
	}
	dev, err := prover.New(prover.Config{Geo: geo, BootMem: core.BuildBootMem(geo, buildID), Key: prover.RegisterKey(key)})
	if err != nil {
		return nil, err
	}
	if err := dev.PowerOn(); err != nil {
		return nil, err
	}
	fab := fabric.New(geo)
	port := icap.New(fab, sim.NewClock("icap", sim.ICAPClockHz))
	rbOut := make([]uint32, device.FrameWords)
	nDyn, nAll := len(dyn), len(all)

	ops := []struct {
		name, unit string
		n          int
		fn         func(i int) error
	}{
		{"aescore.block_ns", "ns", 20000, func(int) error { aes.Encrypt(block, block); return nil }},
		{"cmac.update_frame_us", "us", nAll, func(i int) error { mac.Update(frameBytes[i%nAll]); return nil }},
		{"prover.handle_config_us", "us", nDyn, func(i int) error {
			resp, err := dev.HandleBytes(configReqs[i%nDyn])
			if err == nil && len(resp) > 0 && resp[0] == byte(protocol.MsgError) {
				err = fmt.Errorf("prover refused ICAP_config")
			}
			return err
		}},
		{"prover.handle_readback_us", "us", nAll, func(i int) error {
			resp, err := dev.HandleBytes(readReqs[i%nAll])
			if err == nil && (len(resp) == 0 || resp[0] != byte(protocol.MsgFrameData)) {
				err = fmt.Errorf("prover answered readback with %v", resp)
			}
			return err
		}},
		{"icap.write_frame_us", "us", nDyn, func(i int) error { return port.Write(cfgStreams[i%nDyn]) }},
		{"icap.read_frame_us", "us", nAll, func(i int) error {
			if err := port.Write(rbStreams[i%nAll]); err != nil {
				return err
			}
			_, err := port.Read(2 * device.FrameWords)
			return err
		}},
		{"fabric.readback_frame_ns", "ns", nAll, func(i int) error { return fab.ReadbackFrameInto(i%nAll, rbOut) }},
		{"protocol.decode_config_ns", "ns", nDyn, func(i int) error { _, err := protocol.Decode(configReqs[i%nDyn]); return err }},
		{"protocol.encode_framedata_ns", "ns", nAll, func(i int) error {
			_, err := (&protocol.Message{Type: protocol.MsgFrameData, FrameIndex: uint32(i % nAll), Words: frameWords[i%nAll]}).Encode()
			return err
		}},
		{"protocol.decode_framedata_ns", "ns", nAll, func(i int) error { _, err := protocol.Decode(frameData[i%nAll]); return err }},
		{"ethsim.marshal_frame_ns", "ns", nAll, func(i int) error { _, err := ethFrames[i%nAll].Marshal(); return err }},
		{"ethsim.unmarshal_frame_ns", "ns", nAll, func(i int) error { _, err := ethsim.Unmarshal(ethWire[i%nAll]); return err }},
		{"compress.encode_frame_us", "us", nDyn, func(i int) error { compress.Encode(dynFrameSet[i%nDyn]); return nil }},
		{"compress.decode_frame_us", "us", nDyn, func(i int) error { _, err := compress.Decode(compressed[i%nDyn]); return err }},
	}
	c := layerCosts{}
	for _, o := range ops {
		ns, err := timeCall(rec, o.name, o.n, o.fn)
		if err != nil {
			return nil, err
		}
		c[o.name] = ns
		v := ns
		if o.unit == "us" {
			v = ns / 1e3
		}
		m.set(o.name, v, o.unit, isolatedBatches)
	}
	m.set("compress.ratio", compress.Ratio(dynWords), "ratio", len(dyn))
	return c, nil
}

// planCosts times the plan layer: a cold NewPlan of every class spec
// (summed over classes), a warm PlanCache hit and a WithNonce patch of
// the largest class's plan.
func planCosts(w Workload, s Schedule, rec *Recorder, m Metrics) error {
	opts := verifier.Options{Delta: w.Delta, Compress: w.Delta}
	var specs []attestation.Spec
	seen := map[string]bool{}
	var largest attestation.Spec
	for id := uint64(1); id <= uint64(w.Fleet) && len(seen) < 2; id++ {
		sys, err := newSystem(w, s.ProvisionSeed, id)
		if err != nil {
			return err
		}
		if seen[sys.Geo.Name] {
			continue
		}
		seen[sys.Geo.Name] = true
		spec, err := sys.PatchableSpec(opts)
		if err != nil {
			return err
		}
		specs = append(specs, spec)
		if w.largest(id) {
			largest = spec
		}
	}
	var builds []float64
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		for _, spec := range specs {
			if _, err := attestation.NewPlan(spec); err != nil {
				return err
			}
		}
		t1 := time.Now()
		rec.add(Span{ID: rec.id(), Sweep: -1, Name: "attestation.plan_build_ms", Start: t0.UnixNano(), End: t1.UnixNano()})
		builds = append(builds, ms(t1.Sub(t0)))
	}
	m.set("attestation.plan_build_ms", median(builds), "ms", len(builds))

	cache := attestation.NewPlanCache(8)
	plan, _, err := cache.GetOrBuild(largest)
	if err != nil {
		return err
	}
	hit, err := timeCall(rec, "attestation.plan_cache_hit_us", 20, func(int) error {
		_, built, err := cache.GetOrBuild(largest)
		if err == nil && built {
			err = fmt.Errorf("plan cache missed a warm spec")
		}
		return err
	})
	if err != nil {
		return err
	}
	m.set("attestation.plan_cache_hit_us", hit/1e3, "us", isolatedBatches)
	patch, err := timeCall(rec, "attestation.with_nonce_us", 20, func(i int) error {
		_, err := plan.WithNonce(splitmix(uint64(i)))
		return err
	})
	if err != nil {
		return err
	}
	m.set("attestation.with_nonce_us", patch/1e3, "us", isolatedBatches)
	return nil
}

// accounting attributes one SmallLX session, run alone on a zero-delay
// link, to the isolated layer costs: Σ(cost × count) over the
// top-level per-message and per-frame work. Nested layers (AES inside
// CMAC; ICAP, fabric and protocol encode inside the prover handlers)
// are reported but not summed, so nothing counts twice.
func accounting(s Schedule, c layerCosts, rec *Recorder, m Metrics) error {
	// Device 2 of a mixed fleet is a SmallLX, provisioned as the fleet's.
	sys, err := newSystem(Workload{Mixed: true, Fleet: 2}, s.ProvisionSeed, 2)
	if err != nil {
		return err
	}
	base, err := sys.PatchablePlan(verifier.Options{})
	if err != nil {
		return err
	}
	var walls []float64
	var rep *verifier.Report
	var sent, recv int64
	tr := newTracer(rec, -1, nil)
	for r := 0; r < 5; r++ {
		plan, err := base.WithNonce(splitmix(uint64(r) ^ 0xACC7))
		if err != nil {
			return err
		}
		var ep *tracedEndpoint
		t0 := time.Now()
		rep, err = sys.AttestWithPlan(plan, core.AttestOptions{
			WrapVerifierChannel: func(inner channel.Endpoint) channel.Endpoint {
				ep = tr.wrapChannel(2, inner).(*tracedEndpoint)
				return ep
			},
		})
		t1 := time.Now()
		if err != nil {
			return err
		}
		if !rep.Accepted {
			return fmt.Errorf("accounting session rejected")
		}
		rec.add(Span{ID: rec.id(), Sweep: -1, Name: "accounting.session", Device: 2, Start: t0.UnixNano(), End: t1.UnixNano()})
		walls = append(walls, ms(t1.Sub(t0)))
		sent, recv = ep.msgsSent.Load(), ep.msgsRecv.Load()
	}
	wall := median(walls)
	eth := c["ethsim.marshal_frame_ns"] + c["ethsim.unmarshal_frame_ns"]
	explainedNS := float64(sent+recv)*eth +
		float64(rep.FramesConfigured)*c["prover.handle_config_us"] +
		float64(rep.FramesRead)*(c["prover.handle_readback_us"]+c["protocol.decode_framedata_ns"]+c["cmac.update_frame_us"])
	explained := explainedNS / 1e6
	m.set("accounting.explained_ratio", explained/wall, "ratio", len(walls))
	m.set("accounting.session_ms", wall, "ms", len(walls))
	m.set("accounting.explained_ms", explained, "ms", len(walls))
	m.set("accounting.residue_ms", wall-explained, "ms", len(walls))
	fmt.Fprintf(logOut, "accounting: SmallLX session %.2f ms alone; explained %.2f ms (%.1f%%) = %d msgs x eth %.0f ns + %d configs x %.1f us + %d readbacks x (%.1f + %.2f + %.1f) us; residue %.2f ms\n",
		wall, explained, 100*explained/wall, sent+recv, eth,
		rep.FramesConfigured, c["prover.handle_config_us"]/1e3,
		rep.FramesRead, c["prover.handle_readback_us"]/1e3, c["protocol.decode_framedata_ns"]/1e3, c["cmac.update_frame_us"]/1e3,
		wall-explained)
	return nil
}

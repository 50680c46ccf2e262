package attestation

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"time"

	"sacha/internal/channel"
	"sacha/internal/cmac"
	"sacha/internal/compress"
	"sacha/internal/device"
	"sacha/internal/obs/span"
	"sacha/internal/protocol"
	"sacha/internal/signature"
	"sacha/internal/sim"
	"sacha/internal/timing"
)

// RunOpts are the per-session inputs of one attestation: everything that
// must NOT be shared across devices. The MAC key and the CMAC/transcript
// state derived from it are per device (each fleet member has its own
// enrolled key), the retry session is per connection, and the session
// span is per caller.
type RunOpts struct {
	// Key is the enrolled MAC key (from the PUF enrollment database).
	Key [16]byte
	// SigVerifier checks signature-mode responses; required when the
	// plan was built with SignatureMode.
	SigVerifier *signature.Verifier
	// Retry, when enabled, runs the protocol over the reliable
	// transport. The zero value speaks the paper's bare protocol.
	// Retry.Window > 1 additionally pipelines the configuration and
	// readback phases with up to Window outstanding frames.
	Retry RetryPolicy
	// Timeline, if non-nil, accumulates verifier-side software time.
	// sim.Timeline is not concurrency-safe: concurrent Runs must use
	// distinct timelines (or nil).
	Timeline *sim.Timeline
	// DeltaWarm asserts the delta admissibility precondition for a plan
	// built with Spec.Delta: the immediately preceding full-trust
	// attestation of THIS device succeeded under the same key generation
	// and golden class. The caller (fleet trust ledger, CLI warm-up run)
	// owns that bookkeeping; a delta plan's run without DeltaWarm falls
	// back to the full overwrite with reason "cold". Ignored by plans
	// built without Spec.Delta.
	DeltaWarm bool
	// Span, if non-nil, is this session's causal span and its one
	// protocol event record: Run records every A-action step (the Step
	// kinds, with the action's modelled duration), every Fig. 8 protocol
	// line (a milestone event whose note is the line's text) and a
	// transport summary as span events, and the four contiguous phase
	// checkpoints as child spans. Every hook is nil-guarded and notes are
	// formatted only for a non-nil Span, so a nil Span costs the
	// checkpoint path zero allocations (the contract TestNilSpanZeroAlloc
	// pins).
	Span *span.Span
}

// PhaseBreakdown splits one run's wall time across the protocol
// phases. The boundaries are contiguous — config ends where readback
// begins (the CAPTURE App_step, when used, is charged to readback) —
// so the four durations sum to Elapsed up to clock granularity.
type PhaseBreakdown struct {
	// Config is the dynamic-configuration phase (paper actions A1–A2).
	Config time.Duration
	// Readback covers frame readback, MAC absorption and sendback
	// (A3–A8), plus the optional App_step.
	Readback time.Duration
	// Checksum is the MAC/signature finalisation exchange (A9–A10).
	Checksum time.Duration
	// Verdict is the verifier-side comparison close-out.
	Verdict time.Duration
}

// Sum returns the total of the four phases.
func (p PhaseBreakdown) Sum() time.Duration {
	return p.Config + p.Readback + p.Checksum + p.Verdict
}

// DeltaReport records what the delta configuration mode did in one run.
type DeltaReport struct {
	// Enabled: the plan carries delta mode (Spec.Delta).
	Enabled bool
	// Applied: the rewrite-only path ran; false means the run fell back
	// to the full overwrite for the reason below.
	Applied bool
	// Fallback names why the full overwrite ran instead: "capability"
	// (prover did not grant the scan capability), "cold" (admissibility
	// precondition not asserted), "mismatch" (the scan found frames
	// outside the nonce set differing from golden). Empty when Applied.
	Fallback string
	// FramesScanned/FramesRewritten/FramesSkipped count the delta scan
	// and its outcome. Skipped frames were proven bit-identical to the
	// post-overwrite state before being skipped.
	FramesScanned, FramesRewritten, FramesSkipped int
	// Unexpected lists scanned frames outside the nonce set whose raw
	// content differed from the predicted golden readback — the drift
	// (SEU, tamper, stale configuration) that forced the fallback.
	Unexpected []int
}

// Report is the outcome of one attestation.
type Report struct {
	// MACOK: H_Prv equals H_Vrf (frames authentic and untampered in
	// transit). In signature mode this is the signature check.
	MACOK bool
	// HVrf is the verifier-side MAC tag computed over the received
	// frames in plan order (zero in signature mode). It is exposed so
	// determinism across transport configurations — window sizes, fault
	// recovery — is directly observable: any reordering leak into the
	// MAC absorption would change this value.
	HVrf [16]byte
	// ConfigOK: masked received bitstream equals masked golden bitstream.
	ConfigOK bool
	// Accepted is the overall verdict.
	Accepted bool
	// Mismatches lists frame indices whose masked content differed.
	Mismatches []int
	// FramesConfigured and FramesRead count protocol actions.
	FramesConfigured, FramesRead int
	// Retries counts message re-sends by the reliable transport; zero on
	// a clean link. TransportFaults counts received messages that were
	// discarded (corrupted envelopes, stale duplicates). Together they
	// make link flakiness observable and distinguishable from a MAC
	// rejection.
	Retries, TransportFaults int
	// Phases is the per-phase wall-time breakdown of this run; Elapsed
	// is the end-to-end wall time. The phases are contiguous, so
	// Phases.Sum() equals Elapsed up to clock granularity.
	Phases  PhaseBreakdown
	Elapsed time.Duration
	// Compressed: the session negotiated the compressed wire encodings.
	Compressed bool
	// Delta is the delta configuration mode's outcome.
	Delta DeltaReport
}

// Run drives the full SACHa protocol of Fig. 9 against the prover at the
// other end of ep, using the plan's precomputed artifacts: no fabric
// access and no prediction happen here, and the only messages encoded
// are the 5-byte ICAP_readback commands, into one reused buffer. One
// Plan may serve any number of concurrent Runs. The session speaks the
// capabilities the plan pre-encoded (Spec.Compress, Spec.Delta) and
// nothing else.
//
// Each phase and each single command is one call of the session's
// engine. With Retry.Window > 1 up to Window sequence envelopes stay
// outstanding and responses are re-ordered into plan order before the
// CMAC/transcript absorbs them, so the verdict and H_Vrf are independent
// of the window size and of any transport reordering.
func (p *Plan) Run(ep channel.Endpoint, opts RunOpts) (_ *Report, err error) {
	start := time.Now()
	defer func() {
		if err != nil {
			mRuns.With("error").Inc()
		}
	}()
	sp := opts.Span
	rep := &Report{}
	if p.signatureMode && opts.SigVerifier == nil {
		return nil, fmt.Errorf("verifier: signature mode without an enrolled public key")
	}
	sess := newSession(ep, opts.Retry, rep)
	defer sess.release()

	// rawB/wireB account the compressed payloads moved this run, on both
	// directions; the ratio lands in the compression histogram.
	var rawB, wireB int

	mac, err := cmac.New(opts.Key[:])
	if err != nil {
		return nil, err
	}
	transcript := signature.NewTranscript()
	// One scratch serves every read-back frame of the Run: cmac.Update
	// and Transcript.Absorb both copy, and the comparison keeps nothing,
	// so reusing it avoids 28k+ allocations on the large geometries.
	var scratch frameScratch

	// noteConfig records the per-packet effects of one delivered
	// configuration step; absorbFrame does the same for one read-back
	// frame, folding it into the MAC, the transcript and the golden
	// comparison. Both are always invoked in plan order.
	noteConfig := func(cs configStep) {
		if opts.Timeline != nil {
			opts.Timeline.Add("vrf-sw", timing.VrfConfigOverhead())
		}
		if sp != nil {
			sp.Event(StepConfig, cs.first,
				p.model.ActionTime(timing.A1)+p.model.ActionTime(timing.A2), "")
		}
		rep.FramesConfigured += cs.count
	}
	absorbFrame := func(idx int, resp *protocol.Message) error {
		frame, err := scratch.frameBytes(idx, resp)
		if err != nil {
			return err
		}
		if resp.Type == protocol.MsgFrameDataC {
			rawB += device.FrameBytes
			wireB += len(resp.Comp)
		}
		mac.Update(frame)
		if p.signatureMode { // only Sig_checksum reads the transcript
			transcript.Absorb(frame)
		}
		rep.FramesRead++
		if sp != nil {
			sp.Event(StepReadback, idx,
				p.model.ActionTime(timing.A3)+p.model.ActionTime(timing.A4)+p.model.ActionTime(timing.A6), "")
			sp.Event(StepFrameData, idx, p.model.ActionTime(timing.A8), "frame sendback")
		}
		if !p.frameMatches(idx, frame) {
			rep.Mismatches = append(rep.Mismatches, idx)
		}
		return nil
	}

	// Capability negotiation. Hello goes out as the first command of the
	// session, and only when the plan pre-encoded a capability. A prover
	// that answers anything but Hello_ack grants nothing; the run then
	// degrades to the base protocol instead of failing.
	var caps uint32
	if p.helloWire != nil {
		resp, err := sess.call(p.helloWire, op("Hello"))
		if err != nil {
			return nil, err
		}
		if resp.Type == protocol.MsgHelloAck {
			caps = resp.Caps & p.helloCaps
		}
		if sp != nil {
			sp.Event(milestoneHello, -1, 0,
				fmt.Sprintf("command: Hello(caps=%#x)  ->  granted caps=%#x", p.helloCaps, caps))
		}
	}
	useCompress := caps&protocol.CapCompress != 0
	rep.Compressed = useCompress

	// sendConfigs ships the base packets, then the nonce step's, as one
	// pre-encoded packet sequence. The plain protocol does not answer
	// configuration packets; the reliable transport acknowledges each
	// one, so a dropped frame is re-sent instead of silently producing a
	// mis-configured device and a false mismatch verdict.
	sendConfigs := func(base, step []configStep, format string, compressed bool) error {
		at := func(k int) configStep {
			if k < len(base) {
				return base[k]
			}
			return step[k-len(base)]
		}
		return sess.exchange(len(base)+len(step), func(k int) ([]byte, opLabel) {
			cs := at(k)
			return cs.wire, opLabel{format, cs.first}
		}, false, func(k int, resp *protocol.Message) error {
			cs := at(k)
			if resp != nil && resp.Type != protocol.MsgAck {
				return fmt.Errorf("verifier: %s answered with %v (%s)", opLabel{format, cs.first}, resp.Type, resp.Err)
			}
			noteConfig(cs)
			if compressed {
				rawB += cs.count * device.FrameWords * 4
				wireB += len(cs.wire)
			}
			return nil
		})
	}

	// Phase 1: dynamic configuration — the verifier overwrites the
	// entire DynMem (bounded-memory model) with the plan's pre-encoded
	// packets, the nonce step last, or, in delta mode, scans first and
	// sends only the nonce step when every other dynamic frame is proven
	// bit-identical to the post-overwrite state (DESIGN.md §13). The
	// delta path never skips silently: any reason it cannot run lands in
	// Report.Delta.Fallback and the full overwrite runs instead.
	useDelta := false
	if p.scanSteps != nil {
		rep.Delta.Enabled = true
		switch {
		case caps&protocol.CapScan == 0:
			rep.Delta.Fallback = "capability"
		case !opts.DeltaWarm:
			rep.Delta.Fallback = "cold"
		default:
			if err := p.deltaScan(sess, rep, &scratch, &rawB, &wireB); err != nil {
				return nil, err
			}
			if sp != nil {
				sp.Event(milestoneDeltaScan, p.dynFirst, 0,
					fmt.Sprintf("command: Scan(frame_%d..frame_%d)  [%d frames probed, %d drifted]",
						p.dynFirst, p.dynLast, rep.Delta.FramesScanned, len(rep.Delta.Unexpected)))
			}
			if len(rep.Delta.Unexpected) > 0 {
				rep.Delta.Fallback = "mismatch"
			} else {
				useDelta = true
			}
		}
	}
	if useDelta {
		rep.Delta.Applied = true
		steps, format := p.step.configs, "ICAP_config_delta(%d)"
		if useCompress {
			steps, format = p.step.configsC, "ICAP_config_delta_c(%d)"
		}
		if err := sendConfigs(nil, steps, format, useCompress); err != nil {
			return nil, err
		}
		rep.Delta.FramesRewritten = rep.FramesConfigured
		rep.Delta.FramesSkipped = p.dynCount - rep.Delta.FramesRewritten
		if sp != nil {
			sp.Event(milestoneDeltaApplied, -1, 0,
				fmt.Sprintf("command: delta rewrite  [%d of %d frames rewritten, %d proven clean and skipped]",
					rep.Delta.FramesRewritten, p.dynCount, rep.Delta.FramesSkipped))
		}
	} else {
		if rep.Delta.Enabled && sp != nil {
			sp.Event(milestoneDeltaFallback, -1, 0,
				"delta: falling back to full overwrite ("+rep.Delta.Fallback+")")
		}
		base, step, format := p.configs, p.step.configs, "ICAP_config(%d)"
		if useCompress {
			base, step, format = p.configsC, p.step.configsC, "ICAP_config_batch_c(%d)"
		}
		if err := sendConfigs(base, step, format, useCompress); err != nil {
			return nil, err
		}
		if sp != nil {
			sp.Event(milestoneConfig, -1, 0,
				fmt.Sprintf("command: ICAP_config(frame_%d..frame_%d)  [%d frames, DynMem overwritten]",
					p.dynFirst, p.dynLast, p.dynCount))
		}
	}
	tConfig := time.Now()

	// Optional CAPTURE extension: clock the application deterministically
	// before reading back. The matching prediction was computed at plan
	// build and is the plan's predicted readback.
	if p.appStepWire != nil {
		resp, err := sess.call(p.appStepWire, op("App_step"))
		if err != nil {
			return nil, err
		}
		if resp.Type != protocol.MsgAck {
			return nil, fmt.Errorf("verifier: AppStep answered with %v (%s)", resp.Type, resp.Err)
		}
		if sp != nil {
			sp.Event(milestoneAppStep, -1, 0, fmt.Sprintf("command: App_step(%d)", p.appSteps))
		}
	}

	// Phase 2: full configuration readback in the plan's validated
	// order, with the comparison folded in — the order is a bijection,
	// so each frame is judged exactly once as the engine delivers it back
	// in plan order.
	err = sess.exchange(len(p.order), func(k int) ([]byte, opLabel) {
		// A readback command has no variable-length field: encoding it
		// cannot fail.
		m := protocol.Message{Type: protocol.MsgICAPReadback, FrameIndex: uint32(p.order[k])}
		scratch.cmd, _ = m.AppendEncode(scratch.cmd[:0])
		return scratch.cmd, opLabel{"ICAP_readback(%d)", p.order[k]}
	}, true, func(k int, resp *protocol.Message) error {
		if opts.Timeline != nil {
			opts.Timeline.Add("vrf-sw", timing.VrfReadbackOverhead())
		}
		return absorbFrame(p.order[k], resp)
	})
	if err != nil {
		return nil, err
	}
	if sp != nil {
		sp.Event(milestoneReadback, -1, 0,
			fmt.Sprintf("command: ICAP_readback(%d)..ICAP_readback(%d)  [%d frames, order offset %d mod %d]",
				p.order[0], p.order[len(p.order)-1], len(p.order), p.order[0], p.geo.NumFrames()))
	}
	tReadback := time.Now()

	// Phase 3: checksum.
	if p.signatureMode {
		resp, err := sess.call(p.checksumWire, op("Sig_checksum"))
		if err != nil {
			return nil, err
		}
		if resp.Type != protocol.MsgSigValue {
			return nil, fmt.Errorf("verifier: Sig_checksum answered with %v (%s)", resp.Type, resp.Err)
		}
		rep.MACOK = opts.SigVerifier.Verify(transcript.Digest(), resp.Sig)
		if sp != nil {
			sp.Event(milestoneChecksum, -1, 0,
				fmt.Sprintf("command: Sig_checksum  ->  signature %d bytes, valid=%v", len(resp.Sig), rep.MACOK))
		}
	} else {
		resp, err := sess.call(p.checksumWire, op("MAC_checksum"))
		if err != nil {
			return nil, err
		}
		if resp.Type != protocol.MsgMACValue {
			return nil, fmt.Errorf("verifier: MAC_checksum answered with %v (%s)", resp.Type, resp.Err)
		}
		rep.HVrf = mac.Sum()
		rep.MACOK = cmac.Equal(resp.MAC, rep.HVrf)
		if sp != nil {
			sp.Event(milestoneChecksum, -1, 0,
				fmt.Sprintf("command: MAC_checksum  ->  H_Prv == H_Vrf: %v", rep.MACOK))
			sp.Event(StepChecksum, -1,
				p.model.ActionTime(timing.A9)+p.model.ActionTime(timing.A7), "finalize")
			sp.Event(StepMACValue, -1, p.model.ActionTime(timing.A10),
				fmt.Sprintf("H_Prv == H_Vrf: %v", rep.MACOK))
		}
	}

	tChecksum := time.Now()

	// Phase 4: verdict. The comparison already happened frame by frame;
	// mismatches are reported in ascending frame order regardless of the
	// readback permutation.
	sort.Ints(rep.Mismatches)
	rep.ConfigOK = len(rep.Mismatches) == 0
	if sp != nil {
		sp.Event(milestoneVerdict, -1, 0,
			fmt.Sprintf("verdict: B_Prv == B_Vrf: %v  (%d mismatching frames)", rep.ConfigOK, len(rep.Mismatches)))
	}

	rep.Accepted = rep.MACOK && rep.ConfigOK
	end := time.Now()
	rep.Phases = PhaseBreakdown{
		Config:   tConfig.Sub(start),
		Readback: tReadback.Sub(tConfig),
		Checksum: tChecksum.Sub(tReadback),
		Verdict:  end.Sub(tChecksum),
	}
	rep.Elapsed = end.Sub(start)
	if sp != nil {
		// Phase children telescope over the same checkpoints as
		// rep.Phases, so their durations sum to exactly rep.Elapsed — the
		// invariant the flight-recorder e2e test pins.
		sp.ChildSpanAt("phase:config", start, tConfig)
		sp.ChildSpanAt("phase:readback", tConfig, tReadback)
		sp.ChildSpanAt("phase:checksum", tReadback, tChecksum)
		sp.ChildSpanAt("phase:verdict", tChecksum, end)
		sp.SetTag("retries", strconv.Itoa(rep.Retries))
		sp.SetTag("transport_faults", strconv.Itoa(rep.TransportFaults))
		if opts.Retry.Window > 1 {
			sp.SetTag("window", strconv.Itoa(opts.Retry.Window))
		}
		if wireB > 0 {
			sp.Event("transport", -1, 0,
				fmt.Sprintf("raw=%dB wire=%dB retries=%d faults=%d",
					rawB, wireB, rep.Retries, rep.TransportFaults))
		}
	}
	if wireB > 0 {
		mCompressRawBytes.Add(uint64(rawB))
		mCompressWireBytes.Add(uint64(wireB))
		mCompressRatio.Observe(float64(rawB) / float64(wireB))
	}
	recordRun(rep)
	return rep, nil
}

// deltaScan runs the delta-mode probe phase: read back every dynamic
// frame raw (MAC-free) and compare every frame outside the nonce step
// against the plan's predicted post-configuration readback. Frames that
// differ land in rep.Delta.Unexpected — the caller falls back to the
// full overwrite when that list is non-empty. Nonce frames are rewritten
// either way, so their content is not compared. A probe answered with
// the empty overflow stream proves none of its frames clean, so each of
// them counts as differing.
func (p *Plan) deltaScan(sess *session, rep *Report, scratch *frameScratch, rawB, wireB *int) error {
	return sess.exchange(len(p.scanSteps), func(k int) ([]byte, opLabel) {
		return p.scanSteps[k].wire, opLabel{"Scan(%d..)", p.scanSteps[k].frames[0]}
	}, true, func(k int, resp *protocol.Message) error {
		ss := p.scanSteps[k]
		if resp.Type != protocol.MsgScanData {
			return fmt.Errorf("verifier: Scan(%d..) answered with %v (%s)", ss.frames[0], resp.Type, resp.Err)
		}
		if len(resp.Frames) != len(ss.frames) {
			return fmt.Errorf("verifier: scan answered for %d frames, asked %d", len(resp.Frames), len(ss.frames))
		}
		overflow := len(resp.Comp) == 0
		want := len(ss.frames) * device.FrameWords
		if !overflow {
			b, err := compress.AppendDecodeBytes(scratch.bytes[:0], resp.Comp, want)
			if err != nil {
				return fmt.Errorf("verifier: scan data: %w", err)
			}
			scratch.bytes = b
			if len(b) != 4*want {
				return fmt.Errorf("verifier: scan data carries %d words, want %d", len(b)/4, want)
			}
			*rawB += 4 * want
			*wireB += len(resp.Comp)
		}
		for j, f := range ss.frames {
			if resp.Frames[j] != uint32(f) {
				return fmt.Errorf("verifier: scan answered frame %d at position %d, asked %d", resp.Frames[j], j, f)
			}
			rep.Delta.FramesScanned++
			if p.tmpl.slot[f] >= 0 {
				continue
			}
			if overflow || !bytes.Equal(scratch.bytes[j*device.FrameBytes:(j+1)*device.FrameBytes], p.expectedFrame(f)) {
				rep.Delta.Unexpected = append(rep.Delta.Unexpected, f)
			}
		}
		return nil
	})
}

// recordRun publishes one completed run into the metric families: the
// per-phase and end-to-end latency histograms, the verdict counter and
// the frame totals.
func recordRun(rep *Report) {
	mPhaseSeconds.With(PhaseConfig).ObserveDuration(rep.Phases.Config)
	mPhaseSeconds.With(PhaseReadback).ObserveDuration(rep.Phases.Readback)
	mPhaseSeconds.With(PhaseChecksum).ObserveDuration(rep.Phases.Checksum)
	mPhaseSeconds.With(PhaseVerdict).ObserveDuration(rep.Phases.Verdict)
	mRunSeconds.ObserveDuration(rep.Elapsed)
	verdict := "rejected"
	if rep.Accepted {
		verdict = "accepted"
	}
	mRuns.With(verdict).Inc()
	mFramesRead.Add(uint64(rep.FramesRead))
	mFramesConfigured.Add(uint64(rep.FramesConfigured))
	if rep.Delta.Enabled {
		mFramesScanned.Add(uint64(rep.Delta.FramesScanned))
		mFramesRewritten.Add(uint64(rep.Delta.FramesRewritten))
		mFramesSkipped.Add(uint64(rep.Delta.FramesSkipped))
		if rep.Delta.Fallback != "" {
			mDeltaFallbacks.With(rep.Delta.Fallback).Inc()
		}
	}
}

// frameScratch is the per-Run working set of the read-back path: the
// encoded ICAP_readback command being sent (the engine copies it into
// its envelope, and an endpoint does not retain what it sends), and the
// big-endian bytes a compressed sendback or scan packet decodes into.
type frameScratch struct {
	cmd   []byte
	bytes []byte
}

// frameBytes checks one ICAP_readback answer for frame idx and returns
// its big-endian bytes, the form the MAC and the transcript absorb: a
// plain sendback's payload as received, or a compressed one decoded into
// s.bytes with a decoder bound of exactly one frame, so a hostile stream
// cannot claim more buffer than the frame it answers for.
func (s *frameScratch) frameBytes(idx int, resp *protocol.Message) ([]byte, error) {
	frame := resp.Data
	switch resp.Type {
	case protocol.MsgFrameDataC:
		var err error
		if s.bytes, err = compress.AppendDecodeBytes(s.bytes[:0], resp.Comp, device.FrameWords); err != nil {
			return nil, fmt.Errorf("verifier: compressed readback of frame %d: %w", idx, err)
		}
		frame = s.bytes
	case protocol.MsgFrameData:
	default:
		return nil, fmt.Errorf("verifier: readback of frame %d answered with %v (%s)", idx, resp.Type, resp.Err)
	}
	if len(frame) != device.FrameBytes {
		return nil, fmt.Errorf("verifier: readback of frame %d carries %d bytes, want %d", idx, len(frame), device.FrameBytes)
	}
	if resp.FrameIndex != uint32(idx) {
		return nil, fmt.Errorf("verifier: asked for frame %d, got %d", idx, resp.FrameIndex)
	}
	return frame, nil
}

// expectedFrame returns frame idx's predicted readback, big-endian: the
// nonce step's frame for a nonce frame, the base's for every other.
func (p *Plan) expectedFrame(idx int) []byte {
	if s := p.tmpl.slot[idx]; s >= 0 {
		return p.step.expected[s]
	}
	return p.baseFrame(idx)
}

// baseFrame returns frame idx's entry in the flat base table.
func (p *Plan) baseFrame(idx int) []byte {
	off := idx * device.FrameBytes
	return p.expected[off : off+device.FrameBytes : off+device.FrameBytes]
}

// frameMatches reports whether read-back frame idx, as its big-endian
// bytes, matches its predicted readback: in every bit Msk compares, or
// in every bit when the plan has no mask (CAPTURE mode). An honest
// frame nearly always equals its prediction outright, so the byte
// comparison decides most frames; only a differing frame is compared
// word by word under Msk, folding the differences without a branch.
func (p *Plan) frameMatches(idx int, frame []byte) bool {
	want := p.expectedFrame(idx)
	if bytes.Equal(frame, want) {
		return true
	}
	if p.mask == nil || len(frame) != len(want) {
		return false
	}
	var diff uint32
	for w, m := range p.mask.Frame(idx) {
		diff |= (binary.BigEndian.Uint32(frame[4*w:]) ^ binary.BigEndian.Uint32(want[4*w:])) & m
	}
	return diff == 0
}

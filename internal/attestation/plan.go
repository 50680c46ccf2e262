// Package attestation splits the SACHa verifier into two layers:
//
//   - Plan — everything derivable from the golden image, the device
//     geometry and the protocol options alone. A Plan is built once and
//     is immutable afterwards: the pre-encoded ICAP_config frame/batch
//     wire messages, the validated readback permutation with its
//     pre-encoded ICAP_readback commands, the masked golden comparison
//     frames (or, in CAPTURE mode, the predicted post-step frames), and
//     the pre-encoded checksum command. Plans are safe to share across
//     any number of concurrent Runs, so a fleet verifier pays the
//     O(fabric) golden-image work once per device class instead of once
//     per device.
//
//   - Run — the per-session remainder: the transport session (sequence
//     numbers, retries), the CMAC/transcript state keyed by the device's
//     enrolled key, and the report. Runs are cheap; nothing in the Run
//     path touches the fabric model or re-encodes a frame.
//
// The nonce is deliberately *not* part of this package's state: the
// golden image handed to NewPlan already contains the placed nonce
// register, so a Plan is implicitly bound to one nonce (one sweep), while
// the MAC state lives in the Run because it is keyed per device.
package attestation

import (
	"fmt"
	"sort"

	"sacha/internal/compress"
	"sacha/internal/device"
	"sacha/internal/fabric"
	"sacha/internal/protocol"
	"sacha/internal/timing"

	"time"
)

// MaxConfigBatch caps batched configuration at four frames per packet:
// 4 × 328 bytes plus headers is the most that fits a standard Ethernet
// MTU (larger batches would need jumbo frames).
const MaxConfigBatch = 4

// CompressBatch is the frame count of one compressed configuration
// batch and one delta-mode scan probe. Sixteen frames is the prover's
// packet-buffer capacity (prover.FrameBufferFrames), and at bitstream
// compression ratios a 16-frame compressed batch still fits the same
// Ethernet MTU that bounds MaxConfigBatch for raw frames.
const CompressBatch = protocol.MaxScanFrames

// Spec is the fleet-invariant input of a Plan: the golden image, the
// geometry, and the protocol options that shape the message sequence.
// Per-session knobs (key, retry policy, session span) live in RunOpts.
type Spec struct {
	// Geo is the device geometry of the fleet class.
	Geo *device.Geometry
	// Golden is the full-device golden image: static partition content
	// plus the intended dynamic configuration (including the placed
	// nonce register for this sweep).
	Golden *fabric.Image
	// DynFrames lists the dynamic frames to configure, in transmission
	// order.
	DynFrames []int
	// Offset is the starting frame address i of the ascending modular
	// readback order (paper Fig. 9). Ignored if Permutation is set.
	Offset int
	// Permutation, if non-nil, is the explicit readback order. It must
	// be a bijection over all frames: every frame exactly once. Short,
	// duplicate-bearing or out-of-range permutations are rejected —
	// they would silently exclude frames from the MAC and the golden
	// comparison.
	Permutation []int
	// AppSteps, if non-zero, clocks the configured application that many
	// cycles after configuration and verifies the flip-flop state as
	// well as the configuration (the paper's §8 CAPTURE extension). The
	// masked comparison is then replaced by a raw comparison against a
	// verifier-side prediction, computed once at plan build.
	AppSteps uint32
	// SignatureMode uses the ECDSA extension instead of the MAC.
	SignatureMode bool
	// ConfigBatch sends that many frames per ICAP_config_batch packet
	// (0 or 1 = one frame per packet, the paper's proof of concept). The
	// prover bounds accepted batches by its frame buffer.
	ConfigBatch int
	// PatchableNonce demotes the placed nonce register's value from plan
	// identity to per-session input: the plan records where the nonce
	// bits live (fabric.NonceTemplate), Plan.WithNonce re-derives the
	// affected configuration packets and comparison frames for a new
	// nonce in O(nonce column) instead of O(fabric), and SpecKey hashes
	// the golden image with the nonce bits zeroed — so one cached plan
	// serves every nonce of a device class. The golden image must hold a
	// fabric.NonceBits-wide netlist.NonceRegister as the first design
	// placed into fabric.NonceRegion (every core.System golden build
	// does); NewPlan verifies the template against the built artifacts
	// and rejects the spec otherwise.
	PatchableNonce bool
	// Compress additionally pre-encodes the configuration as compressed
	// 16-frame batches (MsgICAPConfigBatchC), and every Run of the plan
	// negotiates the compressed encodings via Hello. Sessions whose
	// prover does not acknowledge the capability fall back to the plain
	// packets; H_Vrf and the verdict are independent of the negotiation
	// outcome.
	Compress bool
	// Delta precomputes the artifacts of the delta configuration mode:
	// pre-encoded MsgScan probes over the dynamic frames, the raw
	// expected scan readback, and rewrite packets covering exactly the
	// nonce-register frames (the only frames that legitimately differ
	// between a healthy device and a fresh golden image). Every Run of
	// the plan negotiates the scan capability and runs delta when
	// RunOpts.DeltaWarm asserts admissibility, falling back to the full
	// overwrite otherwise (Report.Delta). Delta mode requires
	// AppSteps == 0: skipping a frame's rewrite also skips the flip-flop
	// reset that CAPTURE-mode prediction assumes, so the two are
	// incompatible by construction. The golden image must hold the
	// placed nonce register (as under PatchableNonce) so the rewrite set
	// is derivable.
	Delta bool
}

// configStep is one pre-encoded configuration packet.
type configStep struct {
	wire  []byte
	first int // first frame index, for op and step event labels
	count int
}

// scanStep is one pre-encoded delta-mode scan probe with the frame
// indices it covers, in probe order.
type scanStep struct {
	wire   []byte
	frames []int
}

// Plan is the immutable, concurrency-safe fleet-shared half of an
// attestation: build it once per (golden image, geometry, options) and
// drive any number of concurrent Runs from it.
type Plan struct {
	geo   *device.Geometry
	model *timing.Model

	configs                     []configStep
	dynFirst, dynLast, dynCount int

	appSteps    uint32
	appStepWire []byte

	order     []int
	readbacks [][]byte // pre-encoded ICAP_readback, parallel to order

	signatureMode bool
	checksumWire  []byte

	// expected[idx] is what frame idx must read back as, after the
	// per-mode normalisation: masked golden words, or the raw predicted
	// words in CAPTURE mode. mask is nil in CAPTURE mode (raw compare).
	expected [][]uint32
	mask     *fabric.Image

	// patch carries the nonce-patching state under Spec.PatchableNonce;
	// nil for plans whose nonce is part of their identity.
	patch *noncePatchState

	// Capability-negotiated artifacts (Spec.Compress / Spec.Delta); all
	// nil when the spec requested neither.
	helloCaps uint32
	helloWire []byte
	// configsC are the compressed configuration batches, used instead of
	// configs when a session negotiates CapCompress.
	configsC []configStep
	// scanSteps are the pre-encoded MsgScan probes covering DynFrames;
	// scanExpected[idx] is the raw readback frame idx must scan as on a
	// device that already holds this plan's golden configuration
	// (predicted post-configuration readback: memory bits plus held
	// flip-flop state — a *raw* comparison, unlike the masked verdict,
	// because skipping a rewrite is only sound if the frame is
	// bit-identical to what a full overwrite would have left).
	scanSteps    []scanStep
	scanExpected [][]uint32
	// nonceSet marks the frames that legitimately differ between a
	// healthy device (configured at the previous nonce) and this plan's
	// golden image; deltaSteps / deltaStepsC are the pre-encoded rewrite
	// packets covering exactly those frames, plain and compressed.
	nonceSet    map[int]bool
	deltaSteps  []configStep
	deltaStepsC []configStep
}

// NewPlan validates the spec and precomputes every fleet-invariant
// artifact of the protocol. The returned Plan never mutates.
func NewPlan(spec Spec) (*Plan, error) {
	start := time.Now()
	defer func() {
		mPlanBuilds.Inc()
		mPlanBuildSeconds.ObserveDuration(time.Since(start))
	}()
	if spec.Geo == nil {
		return nil, fmt.Errorf("attestation: plan without a geometry")
	}
	if spec.Golden == nil {
		return nil, fmt.Errorf("attestation: plan without a golden image")
	}
	n := spec.Geo.NumFrames()
	if spec.Golden.NumFrames() != n {
		return nil, fmt.Errorf("attestation: golden image has %d frames, geometry %s has %d",
			spec.Golden.NumFrames(), spec.Geo.Name, n)
	}
	if len(spec.DynFrames) == 0 {
		return nil, fmt.Errorf("attestation: no dynamic frames to configure")
	}
	for _, idx := range spec.DynFrames {
		if idx < 0 || idx >= n {
			return nil, fmt.Errorf("attestation: dynamic frame %d out of range [0,%d)", idx, n)
		}
	}
	if spec.Delta && spec.AppSteps > 0 {
		return nil, fmt.Errorf("attestation: delta mode is incompatible with CAPTURE (AppSteps=%d): a skipped rewrite also skips the flip-flop reset the prediction assumes", spec.AppSteps)
	}
	order, err := readbackOrder(n, spec.Offset, spec.Permutation)
	if err != nil {
		return nil, err
	}

	p := &Plan{
		geo:           spec.Geo,
		model:         timing.NewModel(spec.Geo),
		dynFirst:      spec.DynFrames[0],
		dynLast:       spec.DynFrames[len(spec.DynFrames)-1],
		dynCount:      len(spec.DynFrames),
		appSteps:      spec.AppSteps,
		order:         order,
		signatureMode: spec.SignatureMode,
	}

	if spec.PatchableNonce {
		if err := p.initNoncePatch(spec); err != nil {
			return nil, err
		}
	}

	// Configuration packets, one frame per packet or batched (§6.1).
	batch := spec.ConfigBatch
	if batch < 1 {
		batch = 1
	}
	if batch > MaxConfigBatch {
		batch = MaxConfigBatch
	}
	goldenWords := func(_ int, f int) []uint32 { return spec.Golden.Frame(f) }
	for start := 0; start < len(spec.DynFrames); start += batch {
		end := start + batch
		if end > len(spec.DynFrames) {
			end = len(spec.DynFrames)
		}
		frames := spec.DynFrames[start:end]
		wire, err := encodeConfigPacket(frames, goldenWords, false)
		if err != nil {
			return nil, err
		}
		p.configs = append(p.configs, configStep{wire: wire, first: frames[0], count: len(frames)})
		p.recordPatchStep(spec, tgtConfig, len(p.configs)-1, frames)
	}

	// Compressed configuration batches (Spec.Compress): same frames,
	// same order, 16 frames per packet behind one compress.Encode stream.
	if spec.Compress {
		for start := 0; start < len(spec.DynFrames); start += CompressBatch {
			end := start + CompressBatch
			if end > len(spec.DynFrames) {
				end = len(spec.DynFrames)
			}
			frames := spec.DynFrames[start:end]
			wire, err := encodeConfigPacket(frames, goldenWords, true)
			if err != nil {
				return nil, err
			}
			p.configsC = append(p.configsC, configStep{wire: wire, first: frames[0], count: len(frames)})
			p.recordPatchStep(spec, tgtConfigC, len(p.configsC)-1, frames)
		}
	}

	// Delta-mode artifacts (Spec.Delta): scan probes, the raw expected
	// scan readback, and the nonce-frame rewrite packets.
	if spec.Delta {
		if err := p.initDelta(spec); err != nil {
			return nil, err
		}
	}

	if spec.Compress || spec.Delta {
		if spec.Compress {
			p.helloCaps |= protocol.CapCompress
		}
		if spec.Delta {
			p.helloCaps |= protocol.CapScan
		}
		if p.helloWire, err = protocol.Hello(p.helloCaps).Encode(); err != nil {
			return nil, err
		}
	}

	if spec.AppSteps > 0 {
		wire, err := (&protocol.Message{Type: protocol.MsgAppStep, Steps: spec.AppSteps}).Encode()
		if err != nil {
			return nil, err
		}
		p.appStepWire = wire
	}

	p.readbacks = make([][]byte, len(order))
	for k, idx := range order {
		wire, err := protocol.Readback(idx).Encode()
		if err != nil {
			return nil, err
		}
		p.readbacks[k] = wire
	}

	cks := protocol.Checksum()
	if spec.SignatureMode {
		cks = &protocol.Message{Type: protocol.MsgSigChecksum}
	}
	if p.checksumWire, err = cks.Encode(); err != nil {
		return nil, err
	}

	// Comparison frames. CAPTURE mode predicts the post-step readback
	// once here — the full fabric rebuild plus AppSteps clock ticks that
	// the pre-plan verifier paid on every attestation. Plain mode masks
	// the golden frames once. Either way the Plan owns fresh slices: it
	// holds no live reference into the caller's golden image.
	p.expected = make([][]uint32, n)
	if spec.AppSteps > 0 {
		pred, err := predict(spec.Geo, spec.Golden, spec.AppSteps)
		if err != nil {
			return nil, err
		}
		for idx := 0; idx < n; idx++ {
			w, err := pred.ReadbackFrame(idx)
			if err != nil {
				return nil, err
			}
			p.expected[idx] = w
		}
	} else {
		p.mask = fabric.GenerateMask(spec.Geo)
		for idx := 0; idx < n; idx++ {
			p.expected[idx] = fabric.ApplyMask(spec.Golden.Frame(idx), p.mask.Frame(idx))
		}
	}
	if p.patch != nil {
		// Re-derive the nonce-dependent artifacts through the patch path
		// at the built nonce and demand bit-identity with the cold build
		// above. This pins WithNonce's correctness at build time: if the
		// golden image's nonce partition is not the assumed hold-register
		// layout, the spec is rejected instead of producing plans that
		// drift from cold builds at other nonces.
		if err := p.verifyPatchBase(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// encodeConfigPacket pre-encodes one configuration packet covering
// frames, with wordsAt(k, frame) supplying the words of the k-th frame.
// Plain packets use ICAP_config (single frame) or ICAP_config_batch;
// compressed packets concatenate the words behind one compress.Encode
// stream (ICAP_config_batch_c).
func encodeConfigPacket(frames []int, wordsAt func(k, frame int) []uint32, compressed bool) ([]byte, error) {
	var m *protocol.Message
	switch {
	case compressed:
		m = &protocol.Message{Type: protocol.MsgICAPConfigBatchC}
		all := make([]uint32, 0, len(frames)*device.FrameWords)
		for k, f := range frames {
			m.Frames = append(m.Frames, uint32(f))
			all = append(all, wordsAt(k, f)...)
		}
		m.Comp = compress.Encode(all)
	case len(frames) == 1:
		m = protocol.Config(frames[0], wordsAt(0, frames[0]))
	default:
		m = &protocol.Message{Type: protocol.MsgICAPConfigBatch}
		for k, f := range frames {
			m.Batch = append(m.Batch, protocol.FrameRecord{Index: uint32(f), Words: wordsAt(k, f)})
		}
	}
	return m.Encode()
}

// initDelta precomputes the delta-mode artifacts: the scan probes, the
// raw expected scan readback, the nonce-frame set and the rewrite
// packets covering it. Called by NewPlan after the full-overwrite
// packets are built.
func (p *Plan) initDelta(spec Spec) error {
	// Scan probes: 16 frames per round trip over the dynamic frames.
	for start := 0; start < len(spec.DynFrames); start += CompressBatch {
		end := start + CompressBatch
		if end > len(spec.DynFrames) {
			end = len(spec.DynFrames)
		}
		frames := append([]int(nil), spec.DynFrames[start:end]...)
		u := make([]uint32, len(frames))
		for k, f := range frames {
			u[k] = uint32(f)
		}
		wire, err := protocol.Scan(u).Encode()
		if err != nil {
			return err
		}
		p.scanSteps = append(p.scanSteps, scanStep{wire: wire, frames: frames})
	}

	// The raw expected scan readback is the predicted post-configuration
	// readback: golden memory bits with every used flip-flop's capture
	// bit holding the flip-flop's init value. Raw equality of a scanned
	// frame against this is exactly the condition under which skipping
	// its rewrite leaves the Phase-2 readback bit-identical to a full
	// overwrite (DESIGN.md §13).
	pred, err := predict(spec.Geo, spec.Golden, 0)
	if err != nil {
		return err
	}
	p.scanExpected = make([][]uint32, spec.Geo.NumFrames())
	for _, idx := range spec.DynFrames {
		if p.scanExpected[idx] != nil {
			continue
		}
		w, err := pred.ReadbackFrame(idx)
		if err != nil {
			return err
		}
		p.scanExpected[idx] = w
	}

	// The expected-delta set: exactly the frames carrying nonce-register
	// bits (init or capture). They are the only frames that legitimately
	// differ between a healthy device configured at the previous nonce
	// and this plan's golden image, so the rewrite packets cover them
	// unconditionally — a delta run never encodes a packet at runtime.
	refs := p.patch.templateBits()
	if refs == nil {
		if refs, err = fabric.NonceTemplate(spec.Geo, fabric.NonceBits); err != nil {
			return fmt.Errorf("attestation: delta mode needs the placed nonce register to derive its rewrite set: %w", err)
		}
	}
	inNonce := map[int]bool{}
	for _, ref := range refs {
		inNonce[ref.InitFrame] = true
		inNonce[ref.CapFrame] = true
	}
	var nonceFrames []int
	seen := map[int]bool{}
	for _, f := range spec.DynFrames {
		if inNonce[f] && !seen[f] {
			seen[f] = true
			nonceFrames = append(nonceFrames, f)
		}
	}
	for f := range inNonce {
		if !seen[f] {
			return fmt.Errorf("attestation: nonce frame %d is not in the dynamic frame list — a delta rewrite would never configure it", f)
		}
	}
	p.nonceSet = inNonce

	goldenWords := func(_ int, f int) []uint32 { return spec.Golden.Frame(f) }
	for start := 0; start < len(nonceFrames); start += MaxConfigBatch {
		end := start + MaxConfigBatch
		if end > len(nonceFrames) {
			end = len(nonceFrames)
		}
		frames := nonceFrames[start:end]
		wire, err := encodeConfigPacket(frames, goldenWords, false)
		if err != nil {
			return err
		}
		p.deltaSteps = append(p.deltaSteps, configStep{wire: wire, first: frames[0], count: len(frames)})
		p.recordPatchStep(spec, tgtDelta, len(p.deltaSteps)-1, frames)
	}
	if spec.Compress {
		for start := 0; start < len(nonceFrames); start += CompressBatch {
			end := start + CompressBatch
			if end > len(nonceFrames) {
				end = len(nonceFrames)
			}
			frames := nonceFrames[start:end]
			wire, err := encodeConfigPacket(frames, goldenWords, true)
			if err != nil {
				return err
			}
			p.deltaStepsC = append(p.deltaStepsC, configStep{wire: wire, first: frames[0], count: len(frames)})
			p.recordPatchStep(spec, tgtDeltaC, len(p.deltaStepsC)-1, frames)
		}
	}
	return nil
}

// readbackOrder expands offset/permutation into the concrete frame order
// and enforces that it is a bijection over all frames: every frame
// exactly once. Anything less would silently exclude frames from the MAC
// and the comparison, turning "attested" into "partially attested".
func readbackOrder(n, offset int, perm []int) ([]int, error) {
	if perm == nil {
		order := make([]int, n)
		start := ((offset % n) + n) % n
		for k := range order {
			order[k] = (start + k) % n
		}
		return order, nil
	}
	if len(perm) != n {
		return nil, fmt.Errorf("attestation: permutation covers %d of %d frames — every frame must be read back exactly once", len(perm), n)
	}
	seen := make([]bool, n)
	for _, idx := range perm {
		if idx < 0 || idx >= n {
			return nil, fmt.Errorf("attestation: permutation entry %d out of range [0,%d)", idx, n)
		}
		if seen[idx] {
			return nil, fmt.Errorf("attestation: permutation visits frame %d twice — not a bijection", idx)
		}
		seen[idx] = true
	}
	out := make([]int, n)
	copy(out, perm)
	return out, nil
}

// predict builds the verifier-side state prediction for the CAPTURE
// extension: configure a local fabric with the golden image exactly as
// the device is configured, then clock the dynamic partition.
func predict(geo *device.Geometry, golden *fabric.Image, steps uint32) (*fabric.Fabric, error) {
	fab := fabric.New(geo)
	for idx := 0; idx < geo.NumFrames(); idx++ {
		if err := fab.WriteFrame(idx, golden.Frame(idx)); err != nil {
			return nil, err
		}
	}
	live, err := fab.Live(fabric.DynRegion(geo))
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < steps; i++ {
		if err := live.Step(); err != nil {
			return nil, err
		}
	}
	return fab, nil
}

// Geo returns the plan's device geometry.
func (p *Plan) Geo() *device.Geometry { return p.geo }

// NumFrames returns the frame count covered by the plan's readback.
func (p *Plan) NumFrames() int { return len(p.order) }

// Order returns a copy of the validated readback order.
func (p *Plan) Order() []int {
	out := make([]int, len(p.order))
	copy(out, p.order)
	return out
}

// ConfigPackets returns the number of pre-encoded configuration packets.
func (p *Plan) ConfigPackets() int { return len(p.configs) }

// DeltaRewriteFrames returns the frames an applied delta run rewrites —
// the nonce-register frames — in ascending order; nil for plans built
// without Spec.Delta.
func (p *Plan) DeltaRewriteFrames() []int {
	if p.nonceSet == nil {
		return nil
	}
	out := make([]int, 0, len(p.nonceSet))
	for f := range p.nonceSet {
		out = append(out, f)
	}
	sort.Ints(out)
	return out
}

// AppSteps returns the CAPTURE step count (0 = plain attestation).
func (p *Plan) AppSteps() uint32 { return p.appSteps }

// SignatureMode reports whether Runs use the ECDSA extension.
func (p *Plan) SignatureMode() bool { return p.signatureMode }

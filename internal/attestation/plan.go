// Package attestation splits the SACHa verifier into two layers:
//
//   - Plan — everything derivable from the golden image, the device
//     geometry and the protocol options alone. A Plan is built once and
//     is immutable afterwards: the pre-encoded ICAP_config frame/batch
//     wire messages, the validated readback permutation, the predicted
//     readback every read-back frame is compared against (under Msk, or
//     raw in CAPTURE mode), and the pre-encoded checksum command. Plans
//     are safe to share across any number of concurrent Runs, so a fleet
//     verifier pays the O(fabric) golden-image work once per device
//     class instead of once per device.
//
//   - Run — the per-session remainder: the transport session (sequence
//     numbers, retries), the CMAC/transcript state keyed by the device's
//     enrolled key, and the report. Runs are cheap; nothing in the Run
//     path touches the fabric model or re-encodes a frame.
//
// The nonce is a per-session input of every Plan. A plan is a nonce-free
// base shared by every nonce plus one small nonce step: the packets of
// the frames that carry the placed nonce register, which a Run sends
// last (the second configuration step of Fig. 8), and those frames'
// predicted readback. NewPlan builds the step at the golden image's own
// nonce and Plan.WithNonce at a fresh one, through the same code, so a
// patched plan equals a cold build at its nonce by construction and
// costs O(nonce column). The MAC state lives in the Run because it is
// keyed per device.
package attestation

import (
	"bytes"
	"fmt"
	"slices"
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
	// plus the intended dynamic configuration, including the placed
	// nonce register. The register must be a fabric.NonceBits-wide
	// netlist.NonceRegister placed first into fabric.NonceRegion (every
	// core.System golden build is); its value is the plan's initial
	// nonce. NewPlan checks the layout in every mode: the nonce frames'
	// predicted readback must equal the golden words with the register's
	// capture bits holding the nonce, so an image whose nonce column
	// holds anything but the held register is rejected. Every nonce frame
	// must be in DynFrames.
	Golden *fabric.Image
	// GoldenDigest, if non-zero, is fabric.NonceFreeDigest(Golden,
	// fabric.NonceBits), precomputed by a caller that keeps one golden
	// image per device class (core.System does), so that SpecKey does
	// not re-hash the image on every plan-cache lookup. NewPlan checks
	// it against the image.
	GoldenDigest [32]byte
	// DynFrames lists the dynamic frames to configure, in transmission
	// order, except that the frames carrying nonce-register bits always
	// travel last, in their DynFrames order (the nonce step).
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
	// well as the configuration (the paper's §8 CAPTURE extension): the
	// read-back frames are then compared raw against the predicted
	// readback instead of under Msk.
	AppSteps uint32
	// SignatureMode uses the ECDSA extension instead of the MAC.
	SignatureMode bool
	// ConfigBatch sends that many frames per ICAP_config_batch packet
	// (0 or 1 = one frame per packet, the paper's proof of concept). The
	// prover bounds accepted batches by its frame buffer.
	ConfigBatch int
	// Compress additionally pre-encodes the configuration as compressed
	// 16-frame batches (MsgICAPConfigBatchC), and every Run of the plan
	// negotiates the compressed encodings via Hello. Sessions whose
	// prover does not acknowledge the capability fall back to the plain
	// packets; H_Vrf and the verdict are independent of the negotiation
	// outcome.
	Compress bool
	// Delta pre-encodes the MsgScan probes of the delta configuration
	// mode over the dynamic frames; the scan compares each frame raw
	// against the predicted readback. An applied delta rewrites exactly
	// the nonce step (the only frames that legitimately differ between a
	// healthy device and a fresh golden image). Every Run of the plan
	// negotiates the scan capability and runs delta when
	// RunOpts.DeltaWarm asserts admissibility, falling back to the full
	// overwrite otherwise (Report.Delta). Delta mode requires
	// AppSteps == 0: skipping a frame's rewrite also skips the flip-flop
	// reset that CAPTURE-mode prediction assumes, so the two are
	// incompatible by construction.
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
// drive any number of concurrent Runs from it. Every field but step is
// the nonce-free base, shared by pointer between a plan and every plan
// WithNonce derives from it.
type Plan struct {
	geo   *device.Geometry
	model *timing.Model

	// configs cover DynFrames minus the nonce frames, batch frames per
	// packet; the nonce frames' packets are in step.
	configs                     []configStep
	batch                       int
	dynFirst, dynLast, dynCount int

	appSteps    uint32
	appStepWire []byte

	order []int

	signatureMode bool
	checksumWire  []byte

	// expected is the predicted readback, the plan's one comparison
	// table, in the big-endian form frames travel and are MAC'd in:
	// frame idx's bytes start at idx*device.FrameBytes and are what a
	// device freshly configured with the golden image reads back after
	// AppSteps clock edges — configuration bits plus every used
	// flip-flop's state in its capture bit. A nonce frame's entry is
	// zero; its prediction is in step. The verdict compares under mask
	// (Msk), which is nil in CAPTURE mode (raw compare); the delta scan
	// always compares raw.
	expected []byte
	mask     *fabric.Mask

	// tmpl locates the nonce register; step is this plan's nonce step.
	tmpl *nonceTemplate
	step *nonceStep

	// Capability-negotiated artifacts (Spec.Compress / Spec.Delta); all
	// nil when the spec requested neither.
	helloCaps uint32
	helloWire []byte
	// configsC are the compressed configuration batches, used instead of
	// configs when a session negotiates CapCompress.
	configsC []configStep
	// scanSteps are the pre-encoded MsgScan probes covering DynFrames.
	scanSteps []scanStep
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
	if spec.GoldenDigest != ([32]byte{}) {
		if d, err := fabric.NonceFreeDigest(spec.Golden, fabric.NonceBits); err != nil || d != spec.GoldenDigest {
			return nil, fmt.Errorf("attestation: spec rejected: GoldenDigest does not match the golden image")
		}
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
		batch:         min(max(spec.ConfigBatch, 1), MaxConfigBatch),
		dynFirst:      spec.DynFrames[0],
		dynLast:       spec.DynFrames[len(spec.DynFrames)-1],
		dynCount:      len(spec.DynFrames),
		appSteps:      spec.AppSteps,
		order:         order,
		signatureMode: spec.SignatureMode,
	}

	var nonce uint64
	if p.tmpl, nonce, err = newNonceTemplate(spec); err != nil {
		return nil, err
	}

	// Base configuration packets over every dynamic frame but the nonce
	// frames: one frame per packet or batched (§6.1), and under
	// Spec.Compress also 16 frames per packet behind one compress.Encode
	// stream.
	var base []int
	for _, f := range spec.DynFrames {
		if p.tmpl.slot[f] < 0 {
			base = append(base, f)
		}
	}
	goldenWords := func(i int) []uint32 { return spec.Golden.Frame(base[i]) }
	if p.configs, err = encodeSteps(base, goldenWords, p.batch, false); err != nil {
		return nil, err
	}
	if spec.Compress {
		if p.configsC, err = encodeSteps(base, goldenWords, CompressBatch, true); err != nil {
			return nil, err
		}
	}

	if spec.Delta {
		if p.scanSteps, err = scanProbes(spec.DynFrames); err != nil {
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

	cks := protocol.Checksum()
	if spec.SignatureMode {
		cks = &protocol.Message{Type: protocol.MsgSigChecksum}
	}
	if p.checksumWire, err = cks.Encode(); err != nil {
		return nil, err
	}

	// The predicted readback, computed once here: the full fabric rebuild
	// (plus, in CAPTURE mode, the AppSteps clock ticks) that the pre-plan
	// verifier paid on every attestation. The plan owns the table: it
	// holds no live reference into the caller's golden image.
	pred, err := predict(spec.Geo, spec.Golden, spec.AppSteps)
	if err != nil {
		return nil, err
	}
	p.expected = make([]byte, 0, n*device.FrameBytes)
	words := make([]uint32, device.FrameWords)
	for idx := 0; idx < n; idx++ {
		if err := pred.ReadbackFrameInto(idx, words); err != nil {
			return nil, err
		}
		p.expected = protocol.AppendWords(p.expected, words)
	}
	if spec.AppSteps == 0 {
		p.mask = fabric.GenerateMask(spec.Geo)
	}
	// The nonce step at the golden image's own nonce, built by the code
	// WithNonce runs. Its predicted frames must equal the cold ones just
	// computed: if the golden image's nonce partition is not the assumed
	// held-register layout, the spec is rejected here instead of
	// producing plans that drift from cold builds at other nonces. The
	// base then keeps nothing nonce-dependent.
	if p.step, err = p.stepAt(nonce); err != nil {
		return nil, err
	}
	for j, f := range p.tmpl.frames {
		if !bytes.Equal(p.step.expected[j], p.baseFrame(f)) {
			return nil, fmt.Errorf("attestation: spec rejected: expected frame %d re-derives differently — nonce partition is not a held nonce register", f)
		}
		clear(p.baseFrame(f))
	}
	return p, nil
}

// maxPlanWire is the largest command a plan may pre-encode: one
// Ethernet payload less the sequence envelope a reliable session wraps
// it in. Only the configuration packets can come near it; every other
// pre-encoded command has a small fixed size.
const maxPlanWire = protocol.MaxWire - protocol.SeqHeader

// encodeSteps pre-encodes frames, in order, as configuration packets of
// at most size frames each, with words(i) supplying the words of
// frames[i]. Plain packets use ICAP_config (single frame) or
// ICAP_config_batch; compressed packets concatenate the words behind
// one compress stream (ICAP_config_batch_c), and fail once a batch's
// words do not compress into maxPlanWire. Every packet's wire is a
// slice of one buffer: presized for plain packets, whose size the frame
// count fixes, and copied to its final length once for compressed ones.
func encodeSteps(frames []int, words func(i int) []uint32, size int, compressed bool) ([]configStep, error) {
	steps := make([]configStep, 0, (len(frames)+size-1)/size)
	var buf []byte
	if !compressed {
		// Each frame is its index and words; each packet adds at most a
		// type and a count byte.
		buf = make([]byte, 0, len(frames)*(4+4*device.FrameWords)+2*cap(steps))
	}
	// Scratch reused across packets: AppendEncode copies what it encodes.
	var batch []protocol.FrameRecord
	var index, all []uint32
	var comp []byte
	for start := 0; start < len(frames); start += size {
		end := min(start+size, len(frames))
		var m protocol.Message
		switch {
		case compressed:
			index, all = index[:0], all[:0]
			for i := start; i < end; i++ {
				index = append(index, uint32(frames[i]))
				all = append(all, words(i)...)
			}
			comp = compress.AppendEncode(comp[:0], all)
			m = protocol.Message{Type: protocol.MsgICAPConfigBatchC, Frames: index, Comp: comp}
		case end-start == 1:
			m = protocol.Message{Type: protocol.MsgICAPConfig, FrameIndex: uint32(frames[start]), Words: words(start)}
		default:
			batch = batch[:0]
			for i := start; i < end; i++ {
				batch = append(batch, protocol.FrameRecord{Index: uint32(frames[i]), Words: words(i)})
			}
			m = protocol.Message{Type: protocol.MsgICAPConfigBatch, Batch: batch}
		}
		from := len(buf)
		var err error
		if buf, err = m.AppendEncode(buf); err != nil {
			return nil, err
		}
		if n := len(buf) - from; n > maxPlanWire {
			return nil, fmt.Errorf("attestation: spec rejected: the %v packet from frame %d is %d bytes, over the %d-byte Ethernet payload bound",
				m.Type, frames[start], n, maxPlanWire)
		}
		steps = append(steps, configStep{wire: buf[from:], first: frames[start], count: end - start})
	}
	if compressed {
		buf = slices.Clone(buf)
	}
	// Re-slice every wire out of the final buffer: a plain buffer never
	// grew, a compressed one may have moved while it grew.
	off := 0
	for i := range steps {
		n := len(steps[i].wire)
		steps[i].wire = buf[off : off+n : off+n]
		off += n
	}
	return steps, nil
}

// scanProbes pre-encodes the delta-mode scan probes: CompressBatch
// frames per round trip over the dynamic frames, every probe's wire a
// slice of one buffer and its frames a slice of one copy of dyn.
func scanProbes(dyn []int) ([]scanStep, error) {
	frames := slices.Clone(dyn)
	probes := make([]scanStep, 0, (len(dyn)+CompressBatch-1)/CompressBatch)
	// Each probe is a type and a count byte plus its frame indices.
	buf := make([]byte, 0, 2*cap(probes)+4*len(dyn))
	var index []uint32
	for start := 0; start < len(frames); start += CompressBatch {
		fs := frames[start:min(start+CompressBatch, len(frames))]
		index = index[:0]
		for _, f := range fs {
			index = append(index, uint32(f))
		}
		from := len(buf)
		var err error
		if buf, err = protocol.Scan(index).AppendEncode(buf); err != nil {
			return nil, err
		}
		probes = append(probes, scanStep{wire: buf[from:len(buf):len(buf)], frames: fs[:len(fs):len(fs)]})
	}
	return probes, nil
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

// predict builds the verifier-side state prediction: configure a local
// fabric with the golden image exactly as the device is configured, then
// clock the dynamic partition steps times (the CAPTURE extension; zero
// otherwise).
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

// ConfigPackets returns the number of plain configuration packets a
// full overwrite sends: the base packets plus the nonce step's.
func (p *Plan) ConfigPackets() int { return len(p.configs) + len(p.step.configs) }

// DeltaRewriteFrames returns the frames an applied delta run rewrites —
// the nonce-register frames — in ascending order; nil for plans built
// without Spec.Delta.
func (p *Plan) DeltaRewriteFrames() []int {
	if p.scanSteps == nil {
		return nil
	}
	out := append([]int(nil), p.tmpl.frames...)
	sort.Ints(out)
	return out
}

// AppSteps returns the CAPTURE step count (0 = plain attestation).
func (p *Plan) AppSteps() uint32 { return p.appSteps }

// SignatureMode reports whether Runs use the ECDSA extension.
func (p *Plan) SignatureMode() bool { return p.signatureMode }

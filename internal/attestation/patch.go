package attestation

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"sacha/internal/device"
	"sacha/internal/fabric"
	"sacha/internal/protocol"
)

// nonceTemplate is the nonce-invariant half of the nonce step, shared
// by a plan and every plan WithNonce derives from it: where the placed
// nonce register's bits live, the frames carrying them, and those
// frames' golden words with every nonce bit cleared.
type nonceTemplate struct {
	bits    []fabric.NonceBitRef
	frames  []int      // nonce frames, in DynFrames order
	slot    []int32    // frame index -> position in frames, -1 for every other frame
	golden0 [][]uint32 // golden words of frames at nonce 0
}

// nonceStep is the per-nonce half of a plan: the second configuration
// step of Fig. 8 — the nonce frames' packets, at the plan's ConfigBatch
// and, under Spec.Compress, at CompressBatch — and those frames'
// predicted readback.
type nonceStep struct {
	nonce             uint64
	configs, configsC []configStep
	expected          [][]byte // parallel to nonceTemplate.frames, big-endian
}

// newNonceTemplate locates the nonce register of spec's golden image
// and returns the template with the nonce placed in the register.
// NewPlan calls it before any packet is encoded: the template decides
// which frames the base omits.
func newNonceTemplate(spec Spec) (*nonceTemplate, uint64, error) {
	refs, err := fabric.NonceTemplate(spec.Geo, fabric.NonceBits)
	if err != nil {
		return nil, 0, err
	}
	nonce, err := fabric.ReadNonce(spec.Golden, refs)
	if err != nil {
		return nil, 0, err
	}
	t := &nonceTemplate{bits: refs, slot: make([]int32, spec.Geo.NumFrames())}
	for i := range t.slot {
		t.slot[i] = -1
	}
	inFrames := map[int]bool{}
	for _, ref := range refs {
		inFrames[ref.InitFrame] = true
		inFrames[ref.CapFrame] = true
	}
	for _, f := range spec.DynFrames { // transmission order, each frame once
		if t.slot[f] >= 0 || !inFrames[f] {
			continue
		}
		t.slot[f] = int32(len(t.frames))
		t.frames = append(t.frames, f)
		t.golden0 = append(t.golden0, slices.Clone(spec.Golden.Frame(f)))
	}
	for f := range inFrames {
		if t.slot[f] < 0 {
			return nil, 0, fmt.Errorf("attestation: nonce frame %d is not in the dynamic frame list — a fresh nonce would never be configured", f)
		}
	}
	for _, ref := range refs {
		t.golden0[t.slot[ref.InitFrame]][ref.InitWord] &^= ref.InitMask
	}
	return t, nonce, nil
}

// stepAt builds the nonce step for nonce: the only code that encodes
// nonce frames, run by NewPlan at the golden image's own nonce and by
// WithNonce at every other. Cost is O(nonce column), never O(fabric).
func (p *Plan) stepAt(nonce uint64) (*nonceStep, error) {
	t := p.tmpl
	// setBit writes bit i of the nonce at one template position of a
	// per-frame word set parallel to t.frames.
	setBit := func(words [][]uint32, i, frame, word int, mask uint32) {
		w := &words[t.slot[frame]][word]
		if nonce>>uint(i)&1 == 1 {
			*w |= mask
		} else {
			*w &^= mask
		}
	}
	// Golden words at the new nonce: the template init bits are the only
	// config bits that vary with the nonce value (proven against the
	// placer by TestNonceTemplateMatchesPlacement).
	golden := make([][]uint32, len(t.frames))
	for j, w := range t.golden0 {
		golden[j] = slices.Clone(w)
	}
	for i, ref := range t.bits {
		setBit(golden, i, ref.InitFrame, ref.InitWord, ref.InitMask)
	}
	// Predicted readback: the golden words with the register's state in
	// its capture bits — the nonce register holds (D=Q), so the captured
	// state is the nonce itself in every mode, whatever AppSteps.
	pred := make([][]uint32, len(t.frames))
	for j, w := range golden {
		pred[j] = slices.Clone(w)
	}
	for i, ref := range t.bits {
		setBit(pred, i, ref.CapFrame, ref.CapWord, ref.CapMask)
	}
	st := &nonceStep{nonce: nonce, expected: make([][]byte, len(t.frames))}
	buf := make([]byte, 0, len(t.frames)*device.FrameBytes)
	for j, w := range pred {
		buf = protocol.AppendWords(buf, w)
		st.expected[j] = buf[j*device.FrameBytes : len(buf) : len(buf)]
	}
	words := func(j int) []uint32 { return golden[j] }
	var err error
	if st.configs, err = encodeSteps(t.frames, words, p.batch, false); err != nil {
		return nil, err
	}
	if p.helloCaps&protocol.CapCompress != 0 {
		if st.configsC, err = encodeSteps(t.frames, words, CompressBatch, true); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// WithNonce returns a plan identical to a cold build against the golden
// image for nonce — same pre-encoded packets, same predicted readback,
// bit for bit — that shares this plan's nonce-free base and carries a
// nonce step of its own, built in O(nonce column). The receiver is
// never mutated, so patched plans are safe to derive and run
// concurrently. At the plan's own nonce it returns the receiver itself,
// and that identity call is not counted as a patch.
func (p *Plan) WithNonce(nonce uint64) (*Plan, error) {
	if nonce == p.step.nonce {
		return p, nil
	}
	start := time.Now()
	defer func() {
		mPlanPatches.Inc()
		mPlanPatchSeconds.ObserveDuration(time.Since(start))
	}()
	st, err := p.stepAt(nonce)
	if err != nil {
		return nil, err
	}
	np := *p
	np.step = st
	return &np, nil
}

// Nonce returns the nonce this plan's artifacts encode.
func (p *Plan) Nonce() uint64 { return p.step.nonce }

// Fingerprint hashes every artifact a Run consumes: the pre-encoded
// configuration, app-step and checksum wires, the readback order (which
// fixes every ICAP_readback command), the predicted readback and the
// mask mode. Two plans with equal fingerprints drive byte-identical
// protocol sessions and apply the same acceptance predicate — the
// equivalence the differential tests assert between patched and
// cold-built plans.
func (p *Plan) Fingerprint() [32]byte {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	blob := func(b []byte) {
		put(uint64(len(b)))
		h.Write(b)
	}
	fmt.Fprintf(h, "%s|app:%d|sig:%t|mask:%t|", p.geo.Name, p.appSteps, p.signatureMode, p.mask != nil)
	steps := func(list []configStep) {
		put(uint64(len(list)))
		for _, cs := range list {
			put(uint64(cs.first))
			put(uint64(cs.count))
			blob(cs.wire)
		}
	}
	steps(p.configs)
	steps(p.step.configs)
	steps(p.configsC)
	steps(p.step.configsC)
	blob(p.helloWire)
	put(uint64(len(p.scanSteps)))
	for _, ss := range p.scanSteps {
		blob(ss.wire)
		put(uint64(len(ss.frames)))
		for _, f := range ss.frames {
			put(uint64(f))
		}
	}
	blob(p.appStepWire)
	put(uint64(len(p.order)))
	for _, idx := range p.order {
		put(uint64(idx))
	}
	blob(p.checksumWire)
	for idx := range p.order {
		h.Write(p.expectedFrame(idx))
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

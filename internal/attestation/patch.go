package attestation

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"time"

	"sacha/internal/fabric"
)

// noncePatchState is everything WithNonce needs to re-derive the
// nonce-dependent slice of a plan: the template bit positions, the
// affected frames, the configuration packets covering them, and the
// golden words of those frames at this plan's nonce. The template,
// frame list and step skeleton are shared across all patched variants
// of a plan (they are nonce-invariant); golden and nonce are per-plan.
type noncePatchState struct {
	bits    []fabric.NonceBitRef
	frames  []int       // affected frames, in transmission order
	frameAt map[int]int // frame index -> position in frames/golden
	steps   []patchStep
	golden  [][]uint32 // golden words of frames, at this plan's nonce
	nonce   uint64
}

// Patch-step targets: which pre-encoded packet slice of the plan a
// recorded step re-encodes into.
const (
	tgtConfig  = iota // Plan.configs (full overwrite, plain)
	tgtConfigC        // Plan.configsC (full overwrite, compressed)
	tgtDelta          // Plan.deltaSteps (nonce-frame rewrite, plain)
	tgtDeltaC         // Plan.deltaStepsC (nonce-frame rewrite, compressed)
)

// patchStep names one pre-encoded configuration packet that carries at
// least one nonce-affected frame, with the frame list of the packet and
// nonce-invariant word copies for its frames outside the patch set
// (boundary batches mix application and nonce frames).
type patchStep struct {
	target int // tgtConfig/tgtConfigC/tgtDelta/tgtDeltaC
	index  int // index into the target slice
	frames []int
	words  [][]uint32 // parallel to frames; patch-set entries are overridden
}

// initNoncePatch computes the template, the affected frame set and the
// golden baseline of a spec. Called by NewPlan before the
// configuration packets are encoded; recordPatchStep fills in the step
// skeleton as the packets are built.
func (p *Plan) initNoncePatch(spec Spec) error {
	refs, err := fabric.NonceTemplate(spec.Geo, fabric.NonceBits)
	if err != nil {
		return err
	}
	inFrames := map[int]bool{}
	for _, ref := range refs {
		inFrames[ref.InitFrame] = true
		inFrames[ref.CapFrame] = true
	}
	st := &noncePatchState{bits: refs, frameAt: make(map[int]int, len(inFrames))}
	for _, f := range spec.DynFrames { // transmission order, each frame once
		if _, seen := st.frameAt[f]; seen || !inFrames[f] {
			continue
		}
		st.frameAt[f] = len(st.frames)
		st.frames = append(st.frames, f)
		st.golden = append(st.golden, append([]uint32(nil), spec.Golden.Frame(f)...))
	}
	for f := range inFrames {
		if _, ok := st.frameAt[f]; !ok {
			return fmt.Errorf("attestation: nonce frame %d is not in the dynamic frame list — a fresh nonce would never be configured", f)
		}
	}
	if st.nonce, err = fabric.ReadNonce(spec.Golden, refs); err != nil {
		return err
	}
	p.patch = st
	return nil
}

// recordPatchStep registers one just-encoded configuration packet with
// the patch state when it carries a nonce-affected frame.
func (p *Plan) recordPatchStep(golden *fabric.Image, target, index int, frames []int) {
	hit := false
	for _, f := range frames {
		if _, ok := p.patch.frameAt[f]; ok {
			hit = true
			break
		}
	}
	if !hit {
		return
	}
	st := patchStep{target: target, index: index, frames: append([]int(nil), frames...)}
	for _, f := range frames {
		st.words = append(st.words, append([]uint32(nil), golden.Frame(f)...))
	}
	p.patch.steps = append(p.patch.steps, st)
}

// patchedArtifacts is the nonce-dependent slice of a plan re-derived
// for one nonce value.
type patchedArtifacts struct {
	golden       [][]uint32
	configs      []configStep
	configsC     []configStep
	deltaSteps   []configStep
	deltaStepsC  []configStep
	expected     [][]uint32
	scanExpected [][]uint32
}

// targetSlice maps a patch-step target tag to the artifact slice it
// re-encodes into.
func (art *patchedArtifacts) targetSlice(target int) []configStep {
	switch target {
	case tgtConfig:
		return art.configs
	case tgtConfigC:
		return art.configsC
	case tgtDelta:
		return art.deltaSteps
	default:
		return art.deltaStepsC
	}
}

// patchArtifacts re-derives the configuration packets and comparison
// frames a nonce change touches. Cost is O(nonce column + plan slice
// headers), never O(fabric): the untouched packets and frames are
// shared with the receiver by reference.
func (p *Plan) patchArtifacts(nonce uint64) (*patchedArtifacts, error) {
	st := p.patch
	art := &patchedArtifacts{
		golden:       make([][]uint32, len(st.frames)),
		configs:      make([]configStep, len(p.configs)),
		configsC:     make([]configStep, len(p.configsC)),
		deltaSteps:   make([]configStep, len(p.deltaSteps)),
		deltaStepsC:  make([]configStep, len(p.deltaStepsC)),
		expected:     make([][]uint32, len(p.expected)),
		scanExpected: make([][]uint32, len(p.scanExpected)),
	}
	copy(art.configs, p.configs)
	copy(art.configsC, p.configsC)
	copy(art.deltaSteps, p.deltaSteps)
	copy(art.deltaStepsC, p.deltaStepsC)
	copy(art.expected, p.expected)
	copy(art.scanExpected, p.scanExpected)

	// Golden words of the affected frames at the new nonce: the template
	// init bits are the only config bits that vary with the nonce value
	// (proven against the placer by TestNonceTemplateMatchesPlacement).
	for i := range st.frames {
		w := make([]uint32, len(st.golden[i]))
		copy(w, st.golden[i])
		art.golden[i] = w
	}
	for i, ref := range st.bits {
		j, ok := st.frameAt[ref.InitFrame]
		if !ok {
			return nil, fmt.Errorf("attestation: nonce bit %d init frame %d not in patch set", i, ref.InitFrame)
		}
		w := &art.golden[j][ref.InitWord]
		if nonce>>uint(i)&1 == 1 {
			*w |= ref.InitMask
		} else {
			*w &^= ref.InitMask
		}
	}

	// Comparison frames: plain mode masks the patched golden words;
	// CAPTURE mode additionally surfaces the held register state in the
	// capture bits — the nonce register holds (D=Q), so the captured
	// state is the nonce itself regardless of AppSteps.
	for j, f := range st.frames {
		if p.mask != nil {
			art.expected[f] = fabric.ApplyMask(art.golden[j], p.mask.Frame(f))
			continue
		}
		e := make([]uint32, len(art.golden[j]))
		copy(e, art.golden[j])
		art.expected[f] = e
	}
	if p.mask == nil {
		for i, ref := range st.bits {
			if _, ok := st.frameAt[ref.CapFrame]; !ok {
				return nil, fmt.Errorf("attestation: nonce bit %d capture frame %d not in patch set", i, ref.CapFrame)
			}
			e := art.expected[ref.CapFrame]
			if nonce>>uint(i)&1 == 1 {
				e[ref.CapWord] |= ref.CapMask
			} else {
				e[ref.CapWord] &^= ref.CapMask
			}
		}
	}

	// Raw scan expectation of a delta plan: a nonce bit appears twice in
	// the unmasked readback — as the stored init bit and as the captured
	// register state, which equals the init bit right after configuration
	// (the nonce register holds, D=Q). Patch both positions.
	if len(art.scanExpected) > 0 {
		patched := map[int]bool{}
		frame := func(f int) []uint32 {
			if !patched[f] {
				patched[f] = true
				w := make([]uint32, len(art.scanExpected[f]))
				copy(w, art.scanExpected[f])
				art.scanExpected[f] = w
			}
			return art.scanExpected[f]
		}
		for i, ref := range st.bits {
			iw, cw := frame(ref.InitFrame), frame(ref.CapFrame)
			if nonce>>uint(i)&1 == 1 {
				iw[ref.InitWord] |= ref.InitMask
				cw[ref.CapWord] |= ref.CapMask
			} else {
				iw[ref.InitWord] &^= ref.InitMask
				cw[ref.CapWord] &^= ref.CapMask
			}
		}
	}

	// Re-encode the configuration packets that carry affected frames.
	for _, step := range st.steps {
		compressed := step.target == tgtConfigC || step.target == tgtDeltaC
		wordsAt := func(k, _ int) []uint32 { return p.stepWords(art, step, k) }
		wire, err := encodeConfigPacket(step.frames, wordsAt, compressed)
		if err != nil {
			return nil, err
		}
		slot := art.targetSlice(step.target)
		old := slot[step.index]
		slot[step.index] = configStep{wire: wire, first: old.first, count: old.count}
	}
	return art, nil
}

// stepWords returns the golden words for the k-th frame of a patch
// step: the freshly patched words for frames in the patch set, the
// recorded nonce-invariant copy otherwise.
func (p *Plan) stepWords(art *patchedArtifacts, step patchStep, k int) []uint32 {
	if j, ok := p.patch.frameAt[step.frames[k]]; ok {
		return art.golden[j]
	}
	return step.words[k]
}

// verifyPatchBase re-derives the nonce-dependent artifacts at the
// plan's own built nonce and demands bit-identity with the cold build.
// Run once by NewPlan, it turns the patch path's assumptions (hold
// register, first-placed design, template layout) into a build-time
// check instead of a latent divergence.
func (p *Plan) verifyPatchBase() error {
	art, err := p.patchArtifacts(p.patch.nonce)
	if err != nil {
		return fmt.Errorf("attestation: spec rejected: %w", err)
	}
	base := &patchedArtifacts{configs: p.configs, configsC: p.configsC, deltaSteps: p.deltaSteps, deltaStepsC: p.deltaStepsC}
	for _, step := range p.patch.steps {
		if !bytes.Equal(art.targetSlice(step.target)[step.index].wire, base.targetSlice(step.target)[step.index].wire) {
			return fmt.Errorf("attestation: spec rejected: config packet %d/%d re-derives differently — nonce partition does not match the patch template", step.target, step.index)
		}
	}
	checkFrames := func(got, want [][]uint32, what string) error {
		for _, f := range p.patch.frames {
			a, b := got[f], want[f]
			if len(a) != len(b) {
				return fmt.Errorf("attestation: spec rejected: %s frame %d length mismatch", what, f)
			}
			for w := range a {
				if a[w] != b[w] {
					return fmt.Errorf("attestation: spec rejected: %s frame %d re-derives differently — nonce partition is not a held nonce register", what, f)
				}
			}
		}
		return nil
	}
	if err := checkFrames(art.expected, p.expected, "expected"); err != nil {
		return err
	}
	if len(p.scanExpected) > 0 {
		if err := checkFrames(art.scanExpected, p.scanExpected, "scan-expected"); err != nil {
			return err
		}
	}
	return nil
}

// WithNonce returns a plan identical to a cold build against the golden
// image for nonce — same pre-encoded packets, same comparison frames,
// bit for bit — derived in O(nonce column) by patching this plan's
// nonce-dependent slice. The receiver is never mutated: patched plans
// share every nonce-invariant artifact with it and are safe to derive
// and run concurrently. At the plan's own nonce it returns the receiver
// itself, and that identity call is not counted as a patch.
func (p *Plan) WithNonce(nonce uint64) (*Plan, error) {
	if nonce == p.patch.nonce {
		return p, nil
	}
	start := time.Now()
	defer func() {
		mPlanPatches.Inc()
		mPlanPatchSeconds.ObserveDuration(time.Since(start))
	}()
	art, err := p.patchArtifacts(nonce)
	if err != nil {
		return nil, err
	}
	np := *p
	np.configs = art.configs
	np.configsC = art.configsC
	np.deltaSteps = art.deltaSteps
	np.deltaStepsC = art.deltaStepsC
	np.expected = art.expected
	np.scanExpected = art.scanExpected
	np.patch = &noncePatchState{
		bits:    p.patch.bits,
		frames:  p.patch.frames,
		frameAt: p.patch.frameAt,
		steps:   p.patch.steps,
		golden:  art.golden,
		nonce:   nonce,
	}
	return &np, nil
}

// Nonce returns the nonce this plan's artifacts encode.
func (p *Plan) Nonce() uint64 { return p.patch.nonce }

// Fingerprint hashes every artifact a Run consumes: the pre-encoded
// configuration, app-step, readback and checksum wires, the readback
// order, the comparison frames and the mask mode. Two plans with equal
// fingerprints drive byte-identical protocol sessions and apply the
// same acceptance predicate — the equivalence the differential tests
// assert between patched and cold-built plans.
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
	steps(p.configsC)
	steps(p.deltaSteps)
	steps(p.deltaStepsC)
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
	for _, rb := range p.readbacks {
		blob(rb)
	}
	blob(p.checksumWire)
	wbuf := make([]byte, 0, 4*81)
	frameSet := func(set [][]uint32) {
		put(uint64(len(set)))
		for _, e := range set {
			put(uint64(len(e)))
			wbuf = wbuf[:0]
			for _, w := range e {
				wbuf = binary.BigEndian.AppendUint32(wbuf, w)
			}
			h.Write(wbuf)
		}
	}
	frameSet(p.expected)
	frameSet(p.scanExpected)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

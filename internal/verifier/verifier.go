// Package verifier implements the SACHa verifier: the protocol driver of
// Fig. 9 and the two-stage verdict — the MAC proves authenticity and
// integrity of the transported frames, the masked bitstream comparison
// (B_Prv == B_Vrf) proves the device holds exactly the golden
// configuration.
//
// Since the Plan/Run split the package is a thin facade over
// internal/attestation: Plan precomputes every fleet-invariant artifact
// (pre-encoded configuration and readback messages, the validated
// readback bijection, masked golden or CAPTURE-predicted comparison
// frames), and Attest drives one per-session Run over it. Callers that
// attest many devices of one class should build the Plan once (Plan or
// attestation.NewPlan) and share it across concurrent Runs instead of
// calling Attest per device.
package verifier

import (
	"sacha/internal/attestation"
	"sacha/internal/channel"
	"sacha/internal/device"
	"sacha/internal/fabric"
	"sacha/internal/obs/span"
	"sacha/internal/signature"
	"sacha/internal/sim"
)

// MaxConfigBatch caps batched configuration; see attestation.MaxConfigBatch.
const MaxConfigBatch = attestation.MaxConfigBatch

// Report, RetryPolicy and TransportError are defined by the attestation
// engine; the aliases keep this package the single import point for
// protocol-driving callers.
type (
	Report         = attestation.Report
	RetryPolicy    = attestation.RetryPolicy
	TransportError = attestation.TransportError
)

// DefaultRetryPolicy is a reasonable starting point for a real network.
func DefaultRetryPolicy() RetryPolicy { return attestation.DefaultRetryPolicy() }

// IsTransport reports whether err is (or wraps) a TransportError.
func IsTransport(err error) bool { return attestation.IsTransport(err) }

// Options tune one attestation run. Offset, Permutation, AppSteps,
// SignatureMode and ConfigBatch shape the Plan (fleet-invariant); Span
// and Retry belong to the individual Run.
type Options struct {
	// Offset is the starting frame address i of the ascending modular
	// readback order (paper Fig. 9). Ignored if Permutation is set.
	Offset int
	// Permutation, if non-nil, is the explicit readback order. It must
	// be a bijection over all frames — every frame exactly once; plan
	// construction rejects anything else.
	Permutation []int
	// AppSteps, if non-zero, clocks the configured application that many
	// cycles after configuration and verifies the flip-flop state as
	// well as the configuration (the paper's §8 CAPTURE extension). The
	// masked comparison is then replaced by a raw comparison against a
	// verifier-side prediction.
	AppSteps uint32
	// SignatureMode uses the ECDSA extension instead of the MAC.
	SignatureMode bool
	// ConfigBatch sends that many frames per ICAP_config_batch packet
	// (0 or 1 = one frame per packet, the paper's proof of concept). The
	// prover bounds accepted batches by its frame buffer.
	ConfigBatch int
	// Span, if non-nil, is the causal span of this session and its
	// protocol event record: Run records every protocol step, every
	// Fig. 8 line and the phase children on it (see
	// attestation.RunOpts.Span). Nil disables tracing at zero cost.
	Span *span.Span
	// Retry, when enabled, runs the protocol over the reliable transport:
	// per-message timeouts, bounded re-sends with backoff, idempotent
	// envelopes. The zero value speaks the paper's bare protocol.
	Retry RetryPolicy
	// Compress pre-encodes compressed configuration batches in the plan
	// and opts sessions into the compressed wire encodings (negotiated
	// via Hello; provers without the capability silently get the plain
	// packets). Verdict and H_Vrf are identical either way.
	Compress bool
	// Delta precomputes the delta configuration mode in the plan and opts
	// sessions into it: scan first, rewrite only the nonce-register
	// frames when the device verifiably holds the previous golden
	// configuration, full overwrite otherwise. Requires the golden image
	// to hold the placed nonce register and AppSteps == 0.
	Delta bool
	// DeltaWarm asserts the delta admissibility precondition: the
	// immediately preceding full-trust attestation of THIS device
	// succeeded under the same key generation and golden class. Without
	// it a delta session falls back to the full overwrite ("cold").
	DeltaWarm bool
	// DeltaMaxRewrite caps the frames a delta session may rewrite before
	// falling back ("threshold"); 0 means a quarter of the dynamic
	// partition, floored at the nonce-frame count.
	DeltaMaxRewrite int
}

// Verifier drives attestations against one enrolled device.
type Verifier struct {
	Geo *device.Geometry
	// Key is the enrolled MAC key (from the PUF enrollment database).
	// It is a per-Run input, so rotating it does not invalidate Plans.
	Key [16]byte
	// SigVerifier checks signature-mode responses (extension).
	SigVerifier *signature.Verifier
	// Timeline accumulates verifier-side software time.
	Timeline *sim.Timeline
}

// New returns a verifier for the geometry and enrolled key.
func New(geo *device.Geometry, key [16]byte) *Verifier {
	return &Verifier{
		Geo:      geo,
		Key:      key,
		Timeline: sim.NewTimeline(),
	}
}

// PlanSpec assembles the attestation.Spec for the golden image and the
// plan-shaping halves of opts — the input of attestation.NewPlan and the
// cache key of attestation.PlanCache.
func (v *Verifier) PlanSpec(golden *fabric.Image, dynFrames []int, opts Options) attestation.Spec {
	return attestation.Spec{
		Geo:           v.Geo,
		Golden:        golden,
		DynFrames:     dynFrames,
		Offset:        opts.Offset,
		Permutation:   opts.Permutation,
		AppSteps:      opts.AppSteps,
		SignatureMode: opts.SignatureMode,
		ConfigBatch:   opts.ConfigBatch,
		Compress:      opts.Compress,
		Delta:         opts.Delta,
	}
}

// Plan precomputes the fleet-shared half of an attestation for the
// golden image: build it once per (golden image, geometry, options) and
// reuse it via RunPlan across any number of devices of the class.
func (v *Verifier) Plan(golden *fabric.Image, dynFrames []int, opts Options) (*attestation.Plan, error) {
	return attestation.NewPlan(v.PlanSpec(golden, dynFrames, opts))
}

// RunPlan drives one per-session Run of a precomputed plan against the
// prover at the other end of ep, using this verifier's enrolled key.
// Only the per-run fields of opts (Span, Retry, Compress,
// Delta, DeltaWarm, DeltaMaxRewrite) are consulted; the plan-shaping
// fields were fixed when the plan was built. Compress/Delta sessions
// require a plan whose spec set the matching flag.
func (v *Verifier) RunPlan(ep channel.Endpoint, plan *attestation.Plan, opts Options) (*Report, error) {
	return plan.Run(ep, attestation.RunOpts{
		Key:             v.Key,
		SigVerifier:     v.SigVerifier,
		Retry:           opts.Retry,
		Span:            opts.Span,
		Timeline:        v.Timeline,
		Compress:        opts.Compress,
		Delta:           opts.Delta,
		DeltaWarm:       opts.DeltaWarm,
		DeltaMaxRewrite: opts.DeltaMaxRewrite,
	})
}

// Attest runs the full SACHa protocol of Fig. 9 against the prover at the
// other end of ep. golden is the full-device golden image (static
// partition content plus the intended dynamic configuration); dynFrames
// lists the dynamic frames to configure, in transmission order.
//
// Attest builds a fresh Plan per call — correct everywhere, but fleet
// callers should amortise with Plan + RunPlan.
func (v *Verifier) Attest(ep channel.Endpoint, golden *fabric.Image, dynFrames []int, opts Options) (*Report, error) {
	plan, err := v.Plan(golden, dynFrames, opts)
	if err != nil {
		return nil, err
	}
	return v.RunPlan(ep, plan, opts)
}

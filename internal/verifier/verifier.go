// Package verifier holds the option set and the report type of one
// SACHa attestation (paper Fig. 9). The protocol itself lives in
// internal/attestation: Plan precomputes every fleet-invariant artifact
// and Run drives one session over it; core.System builds the Spec and
// RunOpts from Options.
//
// The package keeps exactly two names, Options and Report, because the
// benchmark harness under fleetbench/ uses them and is changed only
// together with the benchmark. New code should use attestation
// directly; the package goes away with that benchmark change.
package verifier

import (
	"sacha/internal/attestation"
	"sacha/internal/obs/span"
)

// Report is the outcome of one attestation.
type Report = attestation.Report

// Options tune one attestation run. Offset, Permutation, AppSteps,
// SignatureMode, ConfigBatch, Compress and Delta shape the plan
// (attestation.Spec, fleet-invariant); Span, Retry and DeltaWarm belong
// to the individual Run (attestation.RunOpts).
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
	Retry attestation.RetryPolicy
	// Compress pre-encodes compressed configuration batches in the plan;
	// its sessions negotiate the compressed wire encodings via Hello
	// (provers without the capability silently get the plain packets).
	// Verdict and H_Vrf are identical either way.
	Compress bool
	// Delta precomputes the delta configuration mode in the plan: its
	// sessions scan first and rewrite only the nonce-register frames when
	// DeltaWarm holds and the device verifiably holds the previous golden
	// configuration, and run the full overwrite otherwise. Requires the
	// golden image to hold the placed nonce register and AppSteps == 0.
	Delta bool
	// DeltaWarm asserts the delta admissibility precondition: the
	// immediately preceding full-trust attestation of THIS device
	// succeeded under the same key generation and golden class. Without
	// it a delta session falls back to the full overwrite ("cold").
	DeltaWarm bool
}

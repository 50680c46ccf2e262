// Package fleet holds the shared vocabulary of the layered fleet
// stack: the sweep configuration, the per-device and per-sweep result
// types, and the typed configuration errors. The layers compose as
//
//	registry  — device membership, class index, key-generation state
//	scheduler — scheduled/continuous sweep loops (per-class cadence)
//	dispatch  — N verifier shards, class-affinity routing, work stealing
//
// A fleet sweep is dispatch.Dispatcher.Sweep over a registry.Registry;
// a one-shard dispatcher is the single-engine layout. The types live
// here, below all three layers, so each layer can use them without an
// import cycle.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"time"

	"sacha/internal/attestation"
	"sacha/internal/core"
	"sacha/internal/fleet/registry"
	"sacha/internal/obs"
	"sacha/internal/obs/span"
)

// NoncePolicyError reports a SweepConfig whose pinned Nonce contradicts
// its freshness policy: a pinned nonce fixes one nonce for the whole
// sweep, while PerDevice and RotateKey exist to draw fresh per-device
// nonces. The two requests are silently resolvable either way, so the
// sweep refuses to guess.
type NoncePolicyError struct {
	Policy attestation.FreshnessPolicy
}

func (e *NoncePolicyError) Error() string {
	return fmt.Sprintf("fleet: SweepConfig pins a nonce but selects the %s freshness policy — a pinned nonce implies per-sweep freshness; drop the pin or the policy", e.Policy)
}

// NonceSpender is the anti-replay journal the sweep consults before a
// nonce serves an attestation: Spend is an atomic check-and-set that
// fails (store.ErrNonceReplayed) if the nonce was already spent and is
// still inside its replay window. store.NonceJournal implements it; the
// interface lives here so the dispatch layer depends on the contract,
// not the persistence.
type NonceSpender interface {
	Spend(nonce uint64) error
}

// NonceReplayError reports a nonce the anti-replay journal refused —
// either the sweep nonce itself (PerSweep, before any session starts)
// or one device's derived nonce (PerDevice/RotateKey, reported as that
// device's Failed result). DeviceID is 0 for the sweep-level case.
type NonceReplayError struct {
	DeviceID uint64
	Nonce    uint64
	Err      error
}

func (e *NonceReplayError) Error() string {
	if e.DeviceID == 0 {
		return fmt.Sprintf("fleet: sweep nonce %#016x refused by the anti-replay journal: %v", e.Nonce, e.Err)
	}
	return fmt.Sprintf("fleet: device %d nonce %#016x refused by the anti-replay journal: %v", e.DeviceID, e.Nonce, e.Err)
}

func (e *NonceReplayError) Unwrap() error { return e.Err }

// KeyModeError reports a RotateKey-policy sweep over a fleet member
// whose key provisioning cannot rotate (only the DynPart-PUF mode ships
// replaceable key circuits).
type KeyModeError struct {
	DeviceID uint64
	Mode     core.KeyMode
}

func (e *KeyModeError) Error() string {
	return fmt.Sprintf("fleet: freshness policy rotate-key requires the DynPart-PUF key mode on every member, but device %d uses key mode %d", e.DeviceID, e.Mode)
}

// DeviceResult is the outcome for one fleet member.
type DeviceResult struct {
	DeviceID uint64
	// Class is the device's core.System.ClassKey — the plan-sharing
	// group the per-class health tallies aggregate over.
	Class   string
	Report  *attestation.Report
	Err     error
	Elapsed time.Duration
	// PlanPatched reports that this device was attested through a
	// per-device WithNonce patch of its class's shared plan (PerDevice or
	// RotateKey freshness); Nonce is then the per-device nonce the patch
	// encoded. Under PerSweep the class plan is patched once to the sweep
	// nonce before any session starts, so PlanPatched stays false and
	// Nonce zero.
	PlanPatched bool
	Nonce       uint64
	// Shard is the dispatcher shard whose plan served this device and
	// Worker the pool worker that ran the session. Stolen devices keep
	// the victim's Shard (the plan they attested through) while Worker
	// names the thief. One-shard sweeps report shard 0.
	Shard, Worker int
}

// Healthy reports whether the device attested successfully.
func (r DeviceResult) Healthy() bool {
	return r.Err == nil && r.Report != nil && r.Report.Accepted
}

// Unreachable reports whether the sweep could not complete the protocol
// with the device for transport reasons: retry budget exhausted, link
// reset, or the per-device deadline expired. An unreachable device has
// no verdict — it is neither healthy nor compromised.
func (r DeviceResult) Unreachable() bool {
	return r.Err != nil && (attestation.IsTransport(r.Err) ||
		errors.Is(r.Err, context.DeadlineExceeded) || errors.Is(r.Err, context.Canceled))
}

// Compromised reports whether the protocol completed and the verifier
// rejected the device (MAC or bitstream mismatch).
func (r DeviceResult) Compromised() bool {
	return r.Err == nil && r.Report != nil && !r.Report.Accepted
}

// Verdict names the health partition this result falls into: one of
// obs.VerdictHealthy, VerdictCompromised, VerdictUnreachable or
// VerdictFailed.
func (r DeviceResult) Verdict() string {
	switch {
	case r.Healthy():
		return obs.VerdictHealthy
	case r.Compromised():
		return obs.VerdictCompromised
	case r.Unreachable():
		return obs.VerdictUnreachable
	default:
		return obs.VerdictFailed
	}
}

// ClassHealth partitions one device class's sweep outcomes.
type ClassHealth struct {
	Healthy, Compromised, Unreachable, Failed int
}

// ShardStats is one dispatcher shard's share of a sweep. Routed counts
// the devices class-affinity routing assigned to the shard; Stolen the
// devices its workers took from other shards' queues after draining
// their own. Plan accounting is per shard because each shard owns the
// plans (and, in a long-lived dispatcher, the PlanCache) of its
// classes — the hot path class-affinity routing exists to protect.
type ShardStats struct {
	Shard         int
	Routed        int
	Stolen        int
	Classes       int
	PlansBuilt    int
	PlanCacheHits int
}

// Report aggregates a fleet sweep.
type Report struct {
	Results []DeviceResult
	// Healthy, Compromised, Unreachable and Failed partition the fleet:
	// accepted verdicts, rejected verdicts, transport failures, and
	// non-transport errors (e.g. a local golden-image build failure).
	Healthy, Compromised, Unreachable, Failed []uint64
	// PerClass partitions the same outcomes by device class
	// (core.System.ClassKey) — the multi-geometry fleet view: a class
	// whose members all land Unreachable points at a transport or
	// plan problem, one with Compromised members at an attack.
	PerClass map[string]ClassHealth
	// PerShard is the dispatcher's shard-by-shard accounting, indexed by
	// shard. One-shard sweeps report exactly one entry.
	PerShard []ShardStats
	// Retries and TransportFaults aggregate the per-run transport
	// counters across the fleet, so sweep-level fault pressure is
	// visible without scraping individual reports.
	Retries, TransportFaults int
	// Elapsed is the wall time of the sweep.
	Elapsed time.Duration
	// PlansBuilt counts the attestation plans actually constructed for the
	// sweep: one per device class, fewer (down to zero) when a shard's
	// PlanCache serves classes it has seen before.
	PlansBuilt int
	// PlanCacheHits counts device classes whose plan came out of a
	// shard's PlanCache instead of being built.
	PlanCacheHits int
	// PlanPatches counts devices attested through a per-device WithNonce
	// patch of their class's shared plan — the per-device freshness
	// rotations that did NOT cost a plan rebuild. The once-per-class
	// patch to a PerSweep sweep's nonce is not counted.
	PlanPatches int
	// KeysRotated counts the per-device PUF key rotations a RotateKey
	// sweep performed before attesting.
	KeysRotated int
	// Steals counts devices attested by a worker whose home shard had
	// drained — the work-stealing rollup of PerShard[i].Stolen.
	Steals int
	// DeltaApplied counts devices whose configuration phase ran the
	// rewrite-only delta path; DeltaFallbacks counts delta-enabled
	// sessions that fell back to the full overwrite (cold trust,
	// capability or observed drift — the per-device reports carry the
	// reason).
	DeltaApplied, DeltaFallbacks int
	// DeltaUnexpected lists devices whose delta scan observed drift
	// outside the nonce frames — configuration that changed under a
	// supposedly warm device. They were attested via the full-overwrite
	// fallback and demoted in the trust ledger, never silently skipped.
	DeltaUnexpected []uint64
	// NonceReplays lists devices whose derived nonce the anti-replay
	// journal refused (SweepConfig.Nonces). They are reported Failed with
	// a NonceReplayError, never attested under the replayed nonce.
	NonceReplays []uint64
}

// SweepConfig bounds a fleet sweep.
type SweepConfig struct {
	// Concurrency is the worker-pool size; at most Concurrency devices
	// are attested at any moment — across ALL shards of a sharded
	// dispatch, which splits the same budget instead of multiplying it.
	// Values < 1 default to min(8, fleet).
	Concurrency int
	// PerDeviceTimeout bounds each device's attestation: an expired
	// session is stopped (its link is closed, so it ends within one
	// message) and the device is reported Unreachable. Zero means no
	// per-device deadline.
	PerDeviceTimeout time.Duration
	// Deprecated: ignored; every sweep shares per-class plans.
	SharePlans bool
	// Nonce fixes the sweep nonce under the PerSweep freshness policy;
	// nil draws a fresh one. Combining a pinned Nonce with PerDevice or
	// RotateKey is a NoncePolicyError.
	Nonce *uint64
	// NonceSeed pins the base of the per-device nonce derivation under
	// the PerDevice and RotateKey policies: device d's nonce is then
	// DeviceNonce(*NonceSeed, d) — still distinct per device, but
	// reproducible, which is what lets a sharded dispatch be proven
	// bit-identical (verdicts AND H_Vrf) to a one-shard sweep. Nil
	// draws a random base per sweep. Ignored under PerSweep, where
	// Nonce already pins the single sweep nonce.
	NonceSeed *uint64
	// Freshness selects the sweep's freshness unit: PerSweep (the zero
	// value — one nonce shared by the whole sweep, served as one WithNonce
	// patch of each class's shared plan), PerDevice (a fresh nonce per
	// device, served as a WithNonce patch per device), or RotateKey
	// (PerDevice plus a PUF re-keying of every device before the sweep,
	// which rebuilds each class's plan once). The class plans are
	// cache-keyed without the nonce, so under PerSweep and PerDevice a
	// repeated sweep builds no plan. RotateKey requires every member to
	// use core.KeyDynPUF.
	Freshness attestation.FreshnessPolicy
	// Tracker, if non-nil, follows the sweep live: per-device
	// pending/running/done states with verdicts, served by the verifier
	// CLI and sacha-fleetd as the /debug/sweep snapshot.
	Tracker *obs.SweepTracker
	// Compress opts every session of the sweep into the compressed wire
	// encodings (plan-level Spec.Compress plus per-session negotiation).
	// Verdicts and H_Vrf are unchanged; only wire bytes shrink.
	//
	// Compress and Delta are the sweep's only plan-shaping options. Every
	// sweep builds one attestation.Plan per device class (same geometry,
	// application, build, key mode, ROM — see core.System.ClassKey)
	// before the worker pool starts and shares it read-only across the
	// concurrent per-device Runs, so per-device AttestOptions contribute
	// only their per-run knobs (Retry, Span, adversary and channel
	// hooks). The golden-image work is O(classes × fabric), not
	// O(fleet × fabric).
	Compress bool
	// Delta opts the sweep into delta configuration: devices the Trust
	// ledger marks warm for their current class are scanned and get only
	// their nonce frames rewritten; everything else (cold devices, drift,
	// missing capability) falls back to the full overwrite. The delta
	// artifacts live in the shared per-class plan.
	Delta bool
	// Trust is the fleet's delta-admissibility ledger. Required when
	// Delta is set: without recorded warmth every session would fall back
	// cold. The sweep consults it per device before the session and
	// records the outcome after — full trust only for a Healthy verdict
	// whose delta scan (if any) saw no unexpected drift.
	Trust *registry.TrustLedger
	// Spans, if non-nil, collects the sweep's causal span tree: one root
	// span per sweep (trace ID derived from the nonce base, so a pinned
	// NonceSeed pins the whole ID space), one session span per device
	// with shard/worker/steal attribution, and per-phase children plus
	// protocol events below each session. Nil disables tracing at zero
	// hot-path cost.
	Spans *span.Collector
	// Flight, if non-nil, snapshots a flight record for every session
	// that ends in a non-Healthy verdict: the trace's span tree, the
	// session's retained protocol events, the report and the metrics
	// movement since the previous record.
	Flight *span.Recorder
	// Nonces, if non-nil, is the durable anti-replay journal: every nonce
	// is spent (atomic check-and-set) immediately before it serves an
	// attestation. Under PerSweep the single sweep nonce is spent before
	// any session starts and a replay aborts the whole sweep; under
	// PerDevice/RotateKey each device's derived nonce is spent by its
	// worker and a replay fails only that device.
	Nonces NonceSpender
}

// DefaultConcurrency is the worker-pool size used when SweepConfig does
// not specify one.
const DefaultConcurrency = 8

// DeviceNonce derives device id's attestation nonce from a sweep-level
// base — a splitmix64 mix, so consecutive device IDs land on
// uncorrelated nonces while the mapping stays a pure function of
// (base, device), whatever shard or worker runs the device. That (not
// luck) is why a sharded sweep's H_Vrf values are bit-identical to the
// one-shard baseline under a pinned NonceSeed.
func DeviceNonce(base, id uint64) uint64 {
	z := base + id*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

package attestation

import (
	"sacha/internal/obs"
)

// Phase label values of the per-phase latency histograms — the live
// counterpart of the paper's action taxonomy (Table 3 / Fig. 9):
// config covers A1–A2 (dynamic configuration), readback A3–A8 (frame
// readback, MAC absorption, frame sendback), checksum A9–A10
// (MAC/signature finalisation and exchange), verdict the verifier-side
// comparison close-out.
const (
	PhaseConfig   = "config"
	PhaseReadback = "readback"
	PhaseChecksum = "checksum"
	PhaseVerdict  = "verdict"
)

// Metric families of the attestation engine. All land in the Default
// registry; every hot-path update is one atomic operation.
var (
	mPhaseSeconds = obs.Default().HistogramVec("sacha_attest_phase_seconds",
		"Wall time of attestation protocol phases per run.", nil, "phase")
	mRunSeconds = obs.Default().Histogram("sacha_attest_run_seconds",
		"End-to-end wall time of attestation runs.", nil)
	mRuns = obs.Default().CounterVec("sacha_attest_runs_total",
		"Attestation runs by verdict (accepted, rejected, error).", "verdict")
	mFramesRead = obs.Default().Counter("sacha_attest_frames_read_total",
		"Configuration frames read back and absorbed into the MAC.")
	mFramesConfigured = obs.Default().Counter("sacha_attest_frames_configured_total",
		"Configuration frames written into the dynamic partition.")

	mFramesScanned = obs.Default().Counter("sacha_config_frames_scanned_total",
		"Dynamic frames probed by the delta-mode scan.")
	mFramesRewritten = obs.Default().Counter("sacha_config_frames_rewritten_total",
		"Dynamic frames rewritten by applied delta runs.")
	mFramesSkipped = obs.Default().Counter("sacha_config_frames_skipped_total",
		"Dynamic frames proven bit-identical by the delta scan and not rewritten.")
	mDeltaFallbacks = obs.Default().CounterVec("sacha_delta_fallbacks_total",
		"Delta runs that fell back to the full overwrite, by reason (capability, cold, mismatch).", "reason")

	mCompressRawBytes = obs.Default().Counter("sacha_compress_raw_bytes_total",
		"Uncompressed payload bytes moved through the compressed wire encodings, both directions.")
	mCompressWireBytes = obs.Default().Counter("sacha_compress_wire_bytes_total",
		"Compressed payload bytes actually on the wire, both directions.")
	mCompressRatio = obs.Default().Histogram("sacha_compress_ratio",
		"Per-run compression ratio (raw bytes / wire bytes) of the compressed payloads.",
		[]float64{1, 1.5, 2, 3, 5, 8, 13, 21, 34, 55})

	mRetries = obs.Default().Counter("sacha_transport_retries_total",
		"Message re-sends by the reliable transport.")
	mTransportFaults = obs.Default().Counter("sacha_transport_faults_total",
		"Received messages discarded by the reliable transport (corrupt envelopes, stale duplicates).")
	mTimeouts = obs.Default().Counter("sacha_transport_timeouts_total",
		"Per-message response timeouts observed by the reliable transport.")

	mWindowInflight = obs.Default().Gauge("sacha_attest_window_inflight",
		"Sequence envelopes currently outstanding across all pipelined runs.")
	mWindowCmds = obs.Default().Counter("sacha_attest_window_commands_total",
		"Commands shipped through the pipelined window engine.")

	mPlanBuilds = obs.Default().Counter("sacha_plan_builds_total",
		"Attestation plans constructed (golden prediction, masking, message pre-encoding).")
	mPlanBuildSeconds = obs.Default().Histogram("sacha_plan_build_seconds",
		"Wall time of attestation plan builds.", nil)
	mPlanCacheHits = obs.Default().Counter("sacha_plancache_hits_total",
		"Plan cache lookups served from a cached plan.")
	mPlanCacheMisses = obs.Default().Counter("sacha_plancache_misses_total",
		"Plan cache lookups that had to build.")
	mPlanCacheWaits = obs.Default().Counter("sacha_plancache_singleflight_waits_total",
		"Plan cache lookups that waited on another goroutine's in-flight build.")
	mPlanCacheEvictions = obs.Default().Counter("sacha_plancache_evictions_total",
		"Plans evicted from the cache by the LRU bound.")
	mPlanCacheEntries = obs.Default().Gauge("sacha_plancache_entries",
		"Plans currently cached across all plan caches.")

	mPlanPatches = obs.Default().Counter("sacha_plan_patches_total",
		"Plans re-nonced via WithNonce (O(nonce column) patch) instead of a full rebuild.")
	mPlanPatchSeconds = obs.Default().Histogram("sacha_plan_patch_seconds",
		"Wall time of per-session nonce patches of shared plans.", nil)
)

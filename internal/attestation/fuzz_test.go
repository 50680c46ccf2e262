package attestation_test

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"sacha/internal/attestation"
	"sacha/internal/channel"
	"sacha/internal/core"
	"sacha/internal/device"
	"sacha/internal/netlist"
)

// fuzzBase lazily builds one shared TinyLX plan plus the cold
// fingerprints the fuzzer compares against. Building it once keeps each
// fuzz iteration at patch cost, not fabric-build cost.
var fuzzBase struct {
	once sync.Once
	plan *attestation.Plan
	err  error
}

func fuzzPlan(t testing.TB) *attestation.Plan {
	t.Helper()
	fuzzBase.once.Do(func() {
		golden, dyn, err := core.BuildGolden(device.TinyLX(), netlist.Blinker(8), 0xD00D, 0x5EED)
		if err != nil {
			fuzzBase.err = err
			return
		}
		fuzzBase.plan, fuzzBase.err = attestation.NewPlan(attestation.Spec{
			Geo:         device.TinyLX(),
			Golden:      golden,
			DynFrames:   dyn,
			ConfigBatch: 3,
		})
	})
	if fuzzBase.err != nil {
		t.Fatal(fuzzBase.err)
	}
	return fuzzBase.plan
}

// FuzzFreshnessPolicy throws hostile inputs at the freshness policy's
// two parsing/patching surfaces:
//
//   - ParseFreshnessPolicy must never panic, and any accepted string
//     must round-trip (parse(policy.String()) == policy) and be Valid.
//   - Plan.WithNonce must stay path-independent and idempotent for ANY
//     nonce — zero, all-ones, repeated, whatever the fuzzer finds —
//     because a fleet sweep patches a shared plan with attacker-observable
//     nonces and any drift between patch orders would fork H_Vrf.
func FuzzFreshnessPolicy(f *testing.F) {
	f.Add("per-sweep", uint64(0), uint64(0))
	f.Add("per-device", uint64(0), ^uint64(0))
	f.Add("rotate-key", uint64(0x5EED), uint64(0x5EED))
	f.Add("PerDevice", ^uint64(0), uint64(1))
	f.Add(" bogus ", uint64(42), uint64(42))
	f.Fuzz(func(t *testing.T, raw string, a, b uint64) {
		pol, err := attestation.ParseFreshnessPolicy(raw)
		if err == nil {
			if !pol.Valid() {
				t.Fatalf("ParseFreshnessPolicy(%q) accepted invalid policy %d", raw, int(pol))
			}
			round, err := attestation.ParseFreshnessPolicy(pol.String())
			if err != nil || round != pol {
				t.Fatalf("%q → %v does not round-trip: %v %v", raw, pol, round, err)
			}
		} else if strings.TrimSpace(strings.ToLower(raw)) == "per-sweep" {
			t.Fatalf("canonical spelling rejected: %v", err)
		}

		base := fuzzPlan(t)
		pa, err := base.WithNonce(a)
		if err != nil {
			t.Fatalf("WithNonce(%#x): %v", a, err)
		}
		// Idempotence: re-patching to the same nonce is the same plan.
		again, err := pa.WithNonce(a)
		if err != nil || again.Fingerprint() != pa.Fingerprint() {
			t.Fatalf("WithNonce(%#x) not idempotent: %v", a, err)
		}
		// Path independence: base→a→b must equal base→b.
		chained, err := pa.WithNonce(b)
		if err != nil {
			t.Fatalf("WithNonce(%#x) after %#x: %v", b, a, err)
		}
		direct, err := base.WithNonce(b)
		if err != nil {
			t.Fatalf("WithNonce(%#x): %v", b, err)
		}
		if chained.Fingerprint() != direct.Fingerprint() {
			t.Fatalf("patch path dependence: base→%#x→%#x != base→%#x", a, b, b)
		}
		if n := direct.Nonce(); n != b {
			t.Fatalf("patched plan reports nonce %#x, want %#x", n, b)
		}
		// Distinct nonces must yield distinct artifacts — a collision
		// would mean the patch silently ignored nonce bits.
		if a != b && chained.Fingerprint() == pa.Fingerprint() {
			t.Fatalf("plans for nonces %#x and %#x are identical", a, b)
		}
	})
}

// scheduleKinds are the recoverable faults FuzzTransportSchedule
// scripts. FaultReset is left out: a reset link must surface as a typed
// transport failure, never recover.
var scheduleKinds = [...]channel.FaultKind{
	channel.FaultDrop, channel.FaultDuplicate, channel.FaultReorder,
	channel.FaultCorrupt, channel.FaultDelay,
}

// scheduleBaseline is the clean window-1 run every fuzzed schedule must
// reproduce.
var scheduleBaseline struct {
	once sync.Once
	plan *attestation.Plan
	rep  *attestation.Report
	err  error
}

// FuzzTransportSchedule drives an honest TinyLX prover through the
// reliable transport under a fuzzed fault schedule: window 1, 4 or 16,
// and up to 8 scripted drops, duplicates, reorders, corruptions or
// delays, in either direction, on the first 16 messages. Every schedule
// is recoverable within the retry budget, so the run must accept with
// H_Vrf and the mismatch list of the clean lockstep baseline.
//
// knobs picks the window (knobs%3), the reorder depth (1 + knobs/3%3)
// and the delay (5 ms × (1 + knobs/9%3)); each script byte is one fault:
// the low nibble the message index, bit 4 the direction, the top three
// bits the kind (mod 5).
func FuzzTransportSchedule(f *testing.F) {
	f.Add(uint8(0), int64(1), []byte{0x03})             // drop request 3, window 1
	f.Add(uint8(1), int64(1), []byte{0x35})             // duplicate response 5, window 4
	f.Add(uint8(5), int64(1), []byte{0x47})             // reorder request 7 by 2, window 16
	f.Add(uint8(0), int64(9), []byte{0x72})             // corrupt response 2, window 1
	f.Add(uint8(19), int64(1), []byte{0x81})            // delay request 1 by 15 ms, window 4
	f.Add(uint8(2), int64(3), []byte{0x00, 0x10, 0x6f}) // drop both first messages, corrupt request 15
	f.Fuzz(func(t *testing.T, knobs uint8, seed int64, script []byte) {
		if len(script) > 8 {
			script = script[:8]
		}
		b := &scheduleBaseline
		b.once.Do(func() {
			b.plan = buildPlan(t, 0)
			ep := newProverBuild(t, b.plan.Geo(), 0xD00D, nil)
			b.rep, b.err = b.plan.Run(ep, attestation.RunOpts{Key: runKey, Retry: schedulePolicy(1)})
		})
		if b.err != nil || b.rep == nil || !b.rep.Accepted {
			t.Fatalf("clean baseline: %v", b.err)
		}
		cfg := channel.FaultConfig{
			Seed:          seed,
			ReorderWindow: 1 + int(knobs/3%3),
			Delay:         5 * time.Millisecond * time.Duration(1+knobs/9%3),
		}
		for _, op := range script {
			cfg.Script = append(cfg.Script, channel.FaultOp{
				Dir:   channel.Direction(op >> 4 & 1),
				Index: int(op & 0x0F),
				Kind:  scheduleKinds[int(op>>5)%len(scheduleKinds)],
			})
		}
		window := [...]int{1, 4, 16}[knobs%3]
		ep := newProverBuild(t, b.plan.Geo(), 0xD00D, func(ep channel.Endpoint) channel.Endpoint {
			return channel.NewFault(ep, cfg)
		})
		rep, err := b.plan.Run(ep, attestation.RunOpts{Key: runKey, Retry: schedulePolicy(window)})
		if err != nil {
			t.Fatalf("window %d, faults %+v: %v", window, cfg.Script, err)
		}
		if !rep.Accepted || rep.HVrf != b.rep.HVrf || !reflect.DeepEqual(rep.Mismatches, b.rep.Mismatches) {
			t.Fatalf("window %d, faults %+v: accepted=%v H_Vrf %x mismatches %v, baseline %x %v",
				window, cfg.Script, rep.Accepted, rep.HVrf, rep.Mismatches, b.rep.HVrf, b.rep.Mismatches)
		}
		if rep.FramesRead != b.plan.NumFrames() {
			t.Fatalf("window %d, faults %+v: read %d frames, want %d", window, cfg.Script, rep.FramesRead, b.plan.NumFrames())
		}
	})
}

func schedulePolicy(window int) attestation.RetryPolicy {
	return attestation.RetryPolicy{Timeout: 10 * time.Millisecond, MaxRetries: 9, Backoff: time.Millisecond, Window: window}
}

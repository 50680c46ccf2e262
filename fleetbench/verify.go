package main

import (
	"fmt"
	"strconv"
	"strings"

	"sacha/internal/fleet/fleetd"
	"sacha/internal/obs"
)

// Outcome is the correctness verdict of one sweep: Wrong lists every
// disagreement with the generator's expectation, BadDevices counts the
// devices that were Failed, Unreachable or got a wrong verdict.
type Outcome struct {
	Wrong      []string
	BadDevices int
}

func (o *Outcome) wrongf(format string, args ...any) {
	o.Wrong = append(o.Wrong, fmt.Sprintf(format, args...))
}

// Check compares a sweep's record and per-device rows against what the
// generator expects: clean devices Healthy, the tampered one
// Compromised, the drifted one Healthy and listed in delta_unexpected.
func Check(e Expect, rec fleetd.SweepRecord, snap obs.SweepSnapshot) Outcome {
	var o Outcome
	if rec.Err != "" {
		o.wrongf("sweep %d failed: %s", rec.ID, rec.Err)
		o.BadDevices = len(e.Devices)
		return o
	}
	if rec.Devices != len(e.Devices) {
		o.wrongf("sweep attested %d devices, want %d", rec.Devices, len(e.Devices))
	}
	compromised := map[uint64]bool{}
	for _, id := range e.Compromised {
		compromised[id] = true
	}
	unexpected := map[uint64]bool{}
	for _, id := range e.Unexpected {
		unexpected[id] = true
	}
	rows := map[uint64]obs.TargetSnapshot{}
	for _, t := range snap.Targets {
		id, err := strconv.ParseUint(strings.TrimPrefix(t.Target, "device-"), 10, 64)
		if err != nil {
			o.wrongf("unparseable target %q", t.Target)
			continue
		}
		rows[id] = t
	}
	for _, id := range e.Devices {
		t, ok := rows[id]
		want := obs.VerdictHealthy
		if compromised[id] {
			want = obs.VerdictCompromised
		}
		switch {
		case !ok:
			o.wrongf("device %d missing from /debug/sweep", id)
			o.BadDevices++
		case t.State != obs.StateDone:
			o.wrongf("device %d in state %q after the sweep", id, t.State)
			o.BadDevices++
		case t.Verdict != want:
			o.wrongf("device %d verdict %q, want %q (%s)", id, t.Verdict, want, t.Err)
			o.BadDevices++
		case unexpected[id] && t.DeltaFallback != "mismatch":
			o.wrongf("drifted device %d took delta fallback %q, want mismatch", id, t.DeltaFallback)
		}
	}
	if !sameIDs(rec.CompromisedIDs, e.Compromised) {
		o.wrongf("compromised_ids %v, want %v", rec.CompromisedIDs, e.Compromised)
	}
	if !sameIDs(rec.DeltaUnexpected, e.Unexpected) {
		o.wrongf("delta_unexpected %v, want %v", rec.DeltaUnexpected, e.Unexpected)
	}
	if len(rec.NonceReplays) > 0 {
		o.wrongf("nonce replays %v on fresh nonce seeds", rec.NonceReplays)
	}
	if e.DeltaFallbacks >= 0 {
		if rec.DeltaFallbacks != e.DeltaFallbacks || rec.DeltaApplied+rec.DeltaFallbacks != len(e.Devices) {
			o.wrongf("delta applied/fallbacks %d/%d, want %d/%d", rec.DeltaApplied, rec.DeltaFallbacks,
				len(e.Devices)-e.DeltaFallbacks, e.DeltaFallbacks)
		}
	}
	if e.Warm && rec.PlansBuilt != 0 {
		o.wrongf("warm sweep built %d plans, want 0", rec.PlansBuilt)
	}
	return o
}

func sameIDs(got, want []uint64) bool {
	if len(got) != len(want) {
		return false
	}
	seen := map[uint64]int{}
	for _, id := range got {
		seen[id]++
	}
	for _, id := range want {
		if seen[id] == 0 {
			return false
		}
		seen[id]--
	}
	return true
}

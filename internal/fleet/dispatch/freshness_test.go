package dispatch

import (
	"context"
	"errors"
	"strings"
	"testing"

	"sacha/internal/attestation"
	"sacha/internal/core"
	"sacha/internal/device"
	"sacha/internal/fleet"
	"sacha/internal/netlist"
)

// dynPUFFactory provisions TinyLX members in the DynPart-PUF key mode —
// the only provisioning whose key can rotate (paper §5.2.1).
func dynPUFFactory(id uint64) (*core.System, error) {
	return core.NewSystem(core.Config{
		Geo:        device.TinyLX(),
		App:        netlist.Blinker(8),
		KeyMode:    core.KeyDynPUF,
		DeviceID:   id,
		LabLatency: -1,
		Seed:       int64(id),
	})
}

// TestPerDeviceSweepBuildsZeroPlans is the issue's acceptance bar: a
// repeated PerDevice sweep over one device class must build plans only
// on the first pass — every later sweep serves WithNonce patches of the
// cached base — while every device still gets its own nonce.
func TestPerDeviceSweepBuildsZeroPlans(t *testing.T) {
	const size = 4
	reg := mustRegistry(t, size, tinyFactory)
	d := New(Config{Shards: 1, PlanCacheSize: 4})
	cfg := fleet.SweepConfig{
		Concurrency: 2,
		Freshness:   attestation.PerDevice,
	}
	seen := map[uint64]int{}
	first := mustSweep(t, d, reg, cfg, nil)
	if len(first.Healthy) != size {
		t.Fatalf("first sweep healthy=%v failed=%v", first.Healthy, first.Failed)
	}
	if first.PlansBuilt != 1 || first.PlanCacheHits != 0 {
		t.Fatalf("first sweep built=%d hits=%d, want 1/0", first.PlansBuilt, first.PlanCacheHits)
	}
	if first.PlanPatches != size {
		t.Fatalf("first sweep patches=%d, want %d", first.PlanPatches, size)
	}
	for _, r := range first.Results {
		if !r.PlanPatched {
			t.Fatalf("device %d was not patched under PerDevice", r.DeviceID)
		}
		seen[r.Nonce]++
	}

	second := mustSweep(t, d, reg, cfg, nil)
	if len(second.Healthy) != size {
		t.Fatalf("second sweep healthy=%v failed=%v", second.Healthy, second.Failed)
	}
	if second.PlansBuilt != 0 || second.PlanCacheHits != 1 {
		t.Fatalf("second sweep built=%d hits=%d, want 0/1 — nonce rotation must not cost plan builds",
			second.PlansBuilt, second.PlanCacheHits)
	}
	if second.PlanPatches != size {
		t.Fatalf("second sweep patches=%d, want %d", second.PlanPatches, size)
	}
	for _, r := range second.Results {
		seen[r.Nonce]++
	}
	// 2×size draws of a 64-bit nonce: every one must be distinct (a
	// repeat here means the rotation is not actually rotating).
	if len(seen) != 2*size {
		t.Fatalf("nonces not distinct across sweeps: %d unique of %d", len(seen), 2*size)
	}
}

// TestPerDeviceDetectsTamper: the patched plans must keep their teeth —
// a tampered member is still isolated under PerDevice freshness.
func TestPerDeviceDetectsTamper(t *testing.T) {
	d, reg := oneShard(t, 4, tinyFactory)
	const bad = 2
	rep := mustSweep(t, d, reg, fleet.SweepConfig{
		Concurrency: 4,
		Freshness:   attestation.PerDevice,
	}, func(id uint64) core.AttestOptions {
		if id != bad {
			return core.AttestOptions{}
		}
		return tamperFrame(mustSystem(t, reg, id), 3)
	})
	if len(rep.Compromised) != 1 || rep.Compromised[0] != bad {
		t.Fatalf("compromised = %v, want [%d]", rep.Compromised, bad)
	}
	if len(rep.Healthy) != 3 {
		t.Fatalf("healthy = %v", rep.Healthy)
	}
}

// TestNoncePinPolicyConflict: a pinned sweep nonce and a per-device
// freshness policy contradict each other; the sweep must refuse with the
// typed error instead of silently picking one.
func TestNoncePinPolicyConflict(t *testing.T) {
	d, reg := oneShard(t, 2, tinyFactory)
	nonce := uint64(0xFEED)
	for _, pol := range []attestation.FreshnessPolicy{attestation.PerDevice, attestation.RotateKey} {
		_, err := d.Sweep(context.Background(), reg, fleet.SweepConfig{Nonce: &nonce, Freshness: pol}, nil)
		var npe *fleet.NoncePolicyError
		if !errors.As(err, &npe) {
			t.Fatalf("policy %v with pinned nonce: err = %v, want NoncePolicyError", pol, err)
		}
		if npe.Policy != pol {
			t.Fatalf("error names policy %v, want %v", npe.Policy, pol)
		}
		if !strings.HasPrefix(err.Error(), "fleet: ") {
			t.Fatalf("error %q lacks the fleet: prefix", err)
		}
	}
	// The pin is fine under PerSweep.
	if _, err := d.Sweep(context.Background(), reg, fleet.SweepConfig{Nonce: &nonce}, nil); err != nil {
		t.Fatalf("pinned nonce under PerSweep rejected: %v", err)
	}
	// Out-of-range policy values are rejected before any work.
	if _, err := d.Sweep(context.Background(), reg, fleet.SweepConfig{Freshness: attestation.FreshnessPolicy(99)}, nil); err == nil {
		t.Fatal("invalid freshness policy accepted")
	}
}

// TestRotateKeySweep: the strongest policy re-keys every member before
// attesting. The rotation changes the device class (new PUF circuit in
// the golden image), so each sweep rebuilds the class plan once and then
// serves per-device nonce patches off it; verdicts stay intact.
func TestRotateKeySweep(t *testing.T) {
	const size = 3
	reg := mustRegistry(t, size, dynPUFFactory)
	d := New(Config{Shards: 1, PlanCacheSize: 4})
	classBefore := mustSystem(t, reg, 1).ClassKey()
	cfg := fleet.SweepConfig{
		Concurrency: 2,
		Freshness:   attestation.RotateKey,
	}
	first := mustSweep(t, d, reg, cfg, nil)
	if len(first.Healthy) != size {
		t.Fatalf("first sweep healthy=%v failed=%v compromised=%v", first.Healthy, first.Failed, first.Compromised)
	}
	if first.KeysRotated != size {
		t.Fatalf("keys rotated = %d, want %d", first.KeysRotated, size)
	}
	if first.PlansBuilt != 1 || first.PlanPatches != size {
		t.Fatalf("first sweep built=%d patches=%d, want 1/%d", first.PlansBuilt, first.PlanPatches, size)
	}
	classAfter := mustSystem(t, reg, 1).ClassKey()
	if classBefore == classAfter {
		t.Fatal("key rotation did not change the device class")
	}
	// Every sweep rotates again: a fresh key generation is a fresh class,
	// so the old cached plan cannot be (and is not) reused.
	second := mustSweep(t, d, reg, cfg, nil)
	if len(second.Healthy) != size {
		t.Fatalf("second sweep healthy=%v failed=%v", second.Healthy, second.Failed)
	}
	if second.KeysRotated != size || second.PlansBuilt != 1 || second.PlanCacheHits != 0 {
		t.Fatalf("second sweep rotated=%d built=%d hits=%d, want %d/1/0",
			second.KeysRotated, second.PlansBuilt, second.PlanCacheHits, size)
	}
}

// TestRotateKeyDetectsTamper: rotation must not blunt detection.
func TestRotateKeyDetectsTamper(t *testing.T) {
	d, reg := oneShard(t, 3, dynPUFFactory)
	const bad = 1
	rep := mustSweep(t, d, reg, fleet.SweepConfig{
		Concurrency: 3,
		Freshness:   attestation.RotateKey,
	}, func(id uint64) core.AttestOptions {
		if id != bad {
			return core.AttestOptions{}
		}
		return tamperFrame(mustSystem(t, reg, id), 3)
	})
	if len(rep.Compromised) != 1 || rep.Compromised[0] != bad {
		t.Fatalf("compromised = %v, want [%d]", rep.Compromised, bad)
	}
}

// TestRotateKeyRequiresDynPUF: members whose keys cannot rotate fail the
// sweep validation with the typed error naming the offending device.
func TestRotateKeyRequiresDynPUF(t *testing.T) {
	d, reg := oneShard(t, 2, tinyFactory) // KeyStatPUF members
	_, err := d.Sweep(context.Background(), reg, fleet.SweepConfig{Freshness: attestation.RotateKey}, nil)
	var kme *fleet.KeyModeError
	if !errors.As(err, &kme) {
		t.Fatalf("err = %v, want KeyModeError", err)
	}
	if kme.Mode != core.KeyStatPUF {
		t.Fatalf("error names mode %d, want %d", kme.Mode, core.KeyStatPUF)
	}
	if !strings.HasPrefix(err.Error(), "fleet: ") {
		t.Fatalf("error %q lacks the fleet: prefix", err)
	}
}

// TestPerSweepMatchesColdBuild: a PerSweep sweep runs each class plan
// patched once to the sweep nonce. Every device must come back with the
// verdict and H_Vrf of a plan built cold from sys.Golden(nonce), a
// tampered member included, and a second sweep at a new nonce must
// build no plan: one cache hit per class, patched to the new nonce.
func TestPerSweepMatchesColdBuild(t *testing.T) {
	const size, bad = 4, 3
	reg := mustRegistry(t, size, mixedFactory) // two classes
	d := New(Config{Shards: 2, PlanCacheSize: 4})
	opts := func(id uint64) core.AttestOptions {
		if id != bad {
			return core.AttestOptions{}
		}
		return tamperFrame(mustSystem(t, reg, id), 3)
	}
	for sweep, nonce := range []uint64{0xFEED, 0xD1CE} {
		n := nonce
		rep := mustSweep(t, d, reg, fleet.SweepConfig{Concurrency: 2, Nonce: &n}, opts)
		wantBuilt, wantHits := 2, 0
		if sweep > 0 {
			wantBuilt, wantHits = 0, 2
		}
		if rep.PlansBuilt != wantBuilt || rep.PlanCacheHits != wantHits {
			t.Fatalf("sweep at %#x built=%d hits=%d, want %d/%d", n, rep.PlansBuilt, rep.PlanCacheHits, wantBuilt, wantHits)
		}
		if rep.PlanPatches != 0 {
			t.Fatalf("sweep at %#x patched %d devices, want 0 under PerSweep", n, rep.PlanPatches)
		}
		for _, r := range rep.Results {
			sys := mustSystem(t, reg, r.DeviceID)
			golden, err := sys.Golden(n)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := attestation.NewPlan(attestation.Spec{Geo: sys.Geo, Golden: golden, DynFrames: sys.DynFrames()})
			if err != nil {
				t.Fatal(err)
			}
			want, err := sys.AttestWithPlan(cold, opts(r.DeviceID))
			if err != nil || r.Err != nil {
				t.Fatalf("device %d at %#x: cold err %v, sweep err %v", r.DeviceID, n, err, r.Err)
			}
			if r.Report.Accepted != want.Accepted || r.Report.HVrf != want.HVrf {
				t.Fatalf("device %d at %#x: sweep accepted=%v H_Vrf %x, cold build accepted=%v H_Vrf %x",
					r.DeviceID, n, r.Report.Accepted, r.Report.HVrf, want.Accepted, want.HVrf)
			}
			if want.Accepted != (r.DeviceID != bad) {
				t.Fatalf("device %d at %#x: accepted=%v", r.DeviceID, n, want.Accepted)
			}
		}
	}
}

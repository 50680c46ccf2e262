package dispatch_test

import (
	"context"
	"testing"

	"sacha/internal/attestation"
	"sacha/internal/core"
	"sacha/internal/device"
	"sacha/internal/fleet"
	"sacha/internal/fleet/dispatch"
	"sacha/internal/fleet/registry"
	"sacha/internal/netlist"
	"sacha/internal/prover"
)

// diffFactory provisions the differential fleet: 32 devices, mixed
// TinyLX/SmallLX geometries, DynPart-PUF keys (so RotateKey is legal),
// seeded per device — two registries built from it are bit-identical
// twins, which is what lets the test attribute any output difference
// to the engines rather than the fleets.
func diffFactory(id uint64) (*core.System, error) {
	geo := device.TinyLX()
	if id%2 == 0 {
		geo = device.SmallLX()
	}
	return core.NewSystem(core.Config{
		Geo:        geo,
		App:        netlist.Blinker(8),
		KeyMode:    core.KeyDynPUF,
		DeviceID:   id,
		BuildID:    0xD1FF,
		LabLatency: -1,
		Seed:       int64(id) * 7,
	})
}

// tamperOpts flips one dynamic-partition bit on the chosen members of
// either fleet — the same deterministic corruption on both sides, so
// the Compromised partition (and its H_Vrf values) must also match
// bit for bit.
func tamperOpts(lookup func(uint64) (*core.System, bool), tampered map[uint64]bool) func(uint64) core.AttestOptions {
	return func(id uint64) core.AttestOptions {
		if !tampered[id] {
			return core.AttestOptions{}
		}
		sys, _ := lookup(id)
		return core.AttestOptions{TamperDevice: func(d *prover.Device) {
			d.Fabric.Mem.Frame(sys.DynFrames()[3])[5] ^= 2
		}}
	}
}

// TestDifferentialShardedEqualsSingleEngine is the sharding contract of
// the one sweep engine: over a 32-device mixed-geometry fleet, a
// 4-shard dispatch sweep must produce verdicts AND per-device H_Vrf
// bit-identical to the one-shard dispatcher baseline, under all
// three freshness policies, tampered members included. Per-device
// nonces are pinned through SweepConfig (Nonce for PerSweep, NonceSeed
// for the patch policies), so every difference that could appear here
// would be an engine divergence, not noise.
func TestDifferentialShardedEqualsSingleEngine(t *testing.T) {
	const size = 32
	tampered := map[uint64]bool{7: true, 20: true}
	policies := []attestation.FreshnessPolicy{
		attestation.PerSweep, attestation.PerDevice, attestation.RotateKey,
	}
	for _, policy := range policies {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			baseline, err := registry.New(size, diffFactory)
			if err != nil {
				t.Fatal(err)
			}
			reg, err := registry.New(size, diffFactory)
			if err != nil {
				t.Fatal(err)
			}
			cfg := fleet.SweepConfig{
				Concurrency: 8,
				Freshness:   policy,
			}
			if policy == attestation.PerSweep {
				nonce := uint64(0xD1FF_FEED)
				cfg.Nonce = &nonce
			} else {
				seed := uint64(0xABBA_CAFE)
				cfg.NonceSeed = &seed
			}

			single, err := dispatch.New(dispatch.Config{Shards: 1}).Sweep(
				context.Background(), baseline, cfg, tamperOpts(baseline.System, tampered))
			if err != nil {
				t.Fatalf("single-engine sweep: %v", err)
			}
			sharded, err := dispatch.New(dispatch.Config{Shards: 4}).Sweep(
				context.Background(), reg, cfg, tamperOpts(reg.System, tampered))
			if err != nil {
				t.Fatalf("sharded sweep: %v", err)
			}

			if len(single.Results) != size || len(sharded.Results) != size {
				t.Fatalf("result counts: single=%d sharded=%d", len(single.Results), len(sharded.Results))
			}
			if len(sharded.PerShard) != 4 {
				t.Fatalf("sharded dispatch ran %d shards", len(sharded.PerShard))
			}
			routed := 0
			for _, st := range sharded.PerShard {
				routed += st.Routed
			}
			if routed != size {
				t.Fatalf("affinity routing covered %d of %d devices", routed, size)
			}
			for i := range single.Results {
				s, h := single.Results[i], sharded.Results[i]
				if s.DeviceID != h.DeviceID {
					t.Fatalf("result order diverged at %d: %d vs %d", i, s.DeviceID, h.DeviceID)
				}
				if s.Verdict() != h.Verdict() {
					t.Fatalf("device %d verdict diverged: single=%s sharded=%s (errs %v / %v)",
						s.DeviceID, s.Verdict(), h.Verdict(), s.Err, h.Err)
				}
				if s.Nonce != h.Nonce {
					t.Fatalf("device %d nonce diverged: %#x vs %#x", s.DeviceID, s.Nonce, h.Nonce)
				}
				if (s.Report == nil) != (h.Report == nil) {
					t.Fatalf("device %d report presence diverged", s.DeviceID)
				}
				if s.Report != nil && s.Report.HVrf != h.Report.HVrf {
					t.Fatalf("device %d H_Vrf diverged:\n  single:  %x\n  sharded: %x",
						s.DeviceID, s.Report.HVrf, h.Report.HVrf)
				}
				wantCompromised := tampered[s.DeviceID]
				if gotCompromised := s.Compromised(); gotCompromised != wantCompromised {
					t.Fatalf("device %d: compromised=%v, tampered=%v", s.DeviceID, gotCompromised, wantCompromised)
				}
			}
			if got, want := len(single.Compromised), len(tampered); got != want {
				t.Fatalf("baseline isolated %d compromised members, want %d", got, want)
			}
			if single.KeysRotated != sharded.KeysRotated {
				t.Fatalf("key rotations diverged: %d vs %d", single.KeysRotated, sharded.KeysRotated)
			}
		})
	}
}

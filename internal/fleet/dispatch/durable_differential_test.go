package dispatch_test

import (
	"context"
	"testing"

	"sacha/internal/attestation"
	"sacha/internal/fleet"
	"sacha/internal/fleet/dispatch"
	"sacha/internal/fleet/registry"
	"sacha/internal/store"
)

// TestDurableRegistryEqualsStatic is the persistence-transparency
// contract: a sweep over the store-backed Durable registry must produce
// verdicts AND per-device H_Vrf bit-identical to the same sweep over an
// in-memory Static registry built from the same factory — under all
// three freshness policies, tampered members included. Durability must
// be invisible to the attestation protocol: the enrollment store only
// changes where key material lives between processes, never what the
// verifier computes. The RotateKey leg additionally proves the journal
// write on the rotation path (Durable.RotateKey persists the new
// generation before it serves) does not perturb the sweep, and that a
// second registry booted from the same store resumes the rotated
// generations exactly.
func TestDurableRegistryEqualsStatic(t *testing.T) {
	const size = 32
	tampered := map[uint64]bool{7: true, 20: true}
	policies := []attestation.FreshnessPolicy{
		attestation.PerSweep, attestation.PerDevice, attestation.RotateKey,
	}
	for _, policy := range policies {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			st, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncBatch})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()

			static, err := registry.New(size, diffFactory)
			if err != nil {
				t.Fatal(err)
			}
			durable, err := registry.NewDurable(size, diffFactory, st.Enrollment())
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

			want, err := dispatch.New(dispatch.Config{Shards: 4}).Sweep(
				context.Background(), static, cfg, tamperOpts(static.System, tampered))
			if err != nil {
				t.Fatalf("static sweep: %v", err)
			}
			got, err := dispatch.New(dispatch.Config{Shards: 4}).Sweep(
				context.Background(), durable, cfg, tamperOpts(durable.System, tampered))
			if err != nil {
				t.Fatalf("durable sweep: %v", err)
			}

			if len(want.Results) != size || len(got.Results) != size {
				t.Fatalf("result counts: static=%d durable=%d", len(want.Results), len(got.Results))
			}
			for i := range want.Results {
				s, d := want.Results[i], got.Results[i]
				if s.DeviceID != d.DeviceID {
					t.Fatalf("result order diverged at %d: %d vs %d", i, s.DeviceID, d.DeviceID)
				}
				if s.Verdict() != d.Verdict() {
					t.Fatalf("device %d verdict diverged: static=%s durable=%s (errs %v / %v)",
						s.DeviceID, s.Verdict(), d.Verdict(), s.Err, d.Err)
				}
				if s.Nonce != d.Nonce {
					t.Fatalf("device %d nonce diverged: %#x vs %#x", s.DeviceID, s.Nonce, d.Nonce)
				}
				if (s.Report == nil) != (d.Report == nil) {
					t.Fatalf("device %d report presence diverged", s.DeviceID)
				}
				if s.Report != nil && s.Report.HVrf != d.Report.HVrf {
					t.Fatalf("device %d H_Vrf diverged:\n  static:  %x\n  durable: %x",
						s.DeviceID, s.Report.HVrf, d.Report.HVrf)
				}
				if gotCompromised := d.Compromised(); gotCompromised != tampered[d.DeviceID] {
					t.Fatalf("device %d: compromised=%v, tampered=%v",
						d.DeviceID, gotCompromised, tampered[d.DeviceID])
				}
			}
			if want.KeysRotated != got.KeysRotated {
				t.Fatalf("key rotations diverged: %d vs %d", want.KeysRotated, got.KeysRotated)
			}

			if policy != attestation.RotateKey {
				return
			}
			// The rotation was journaled; a fresh registry on the same store
			// must resume every device at the post-rotation generation with
			// the identical key (provable indirectly: generations match and
			// NewDurable itself verifies stored-vs-restored key agreement).
			resumed, err := registry.NewDurable(size, diffFactory, st.Enrollment())
			if err != nil {
				t.Fatalf("rebooting registry from store: %v", err)
			}
			for _, id := range resumed.IDs() {
				before, _ := durable.System(id)
				after, _ := resumed.System(id)
				if bg, ag := before.KeyGeneration(), after.KeyGeneration(); bg != ag || ag != 2 {
					t.Fatalf("device %d generation: pre-reboot %d, post-reboot %d (want 2)", id, bg, ag)
				}
			}
		})
	}
}

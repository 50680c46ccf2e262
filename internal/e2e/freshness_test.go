package e2e

import (
	"fmt"
	"testing"
	"time"

	"sacha/internal/attestation"
	"sacha/internal/channel"
	"sacha/internal/core"
	"sacha/internal/device"
	"sacha/internal/fleet"
	"sacha/internal/fleet/dispatch"
	"sacha/internal/fleet/registry"
	"sacha/internal/netlist"
	"sacha/internal/prover"
	"sacha/internal/verifier"
)

// freshnessFleet provisions a TinyLX fleet in the DynPart-PUF key mode,
// the only provisioning all three freshness policies (including
// RotateKey) can run against.
func freshnessFleet(t testing.TB, size int) *registry.Static {
	t.Helper()
	f, err := registry.New(size, func(id uint64) (*core.System, error) {
		return core.NewSystem(core.Config{
			Geo:        device.TinyLX(),
			App:        netlist.Blinker(8),
			KeyMode:    core.KeyDynPUF,
			DeviceID:   id,
			LabLatency: -1,
			Seed:       int64(id),
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// coldAttest attests sys at nonce through a plan built cold from
// sys.Golden(nonce) — no WithNonce patch on the path — the reference
// the sweep paths must match bit for bit.
func coldAttest(t testing.TB, sys *core.System, nonce uint64) *attestation.Report {
	t.Helper()
	golden, err := sys.Golden(nonce)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := attestation.NewPlan(attestation.Spec{Geo: sys.Geo, Golden: golden, DynFrames: sys.DynFrames()})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.AttestWithPlan(plan, core.AttestOptions{})
	if err != nil || !rep.Accepted {
		t.Fatalf("cold attest at %#x: %v", nonce, err)
	}
	return rep
}

func allPolicies() []attestation.FreshnessPolicy {
	return []attestation.FreshnessPolicy{
		attestation.PerSweep,
		attestation.PerDevice,
		attestation.RotateKey,
	}
}

// TestFreshnessPoliciesFaultMatrix sweeps every recoverable fault kind
// across the protocol phases under all three freshness policies: one
// scripted fault per member, each member hit in a different phase. A
// single in-budget fault must never change a verdict, no matter which
// freshness unit the sweep runs — the patched-plan and rotated-key paths
// inherit the reliable transport unchanged.
func TestFreshnessPoliciesFaultMatrix(t *testing.T) {
	// Send indexing (stop-and-wait, config batch 1): sends 0..C-1 are
	// ICAP_config, C..C+N-1 ICAP_readback, C+N the checksum.
	probe := freshnessFleet(t, 1)
	sys, _ := probe.System(1)
	c := len(sys.DynFrames())
	n := sys.Geo.NumFrames()
	phaseIndex := []int{c / 2, c + n/2, c + n} // config, readback, checksum

	kinds := []channel.FaultKind{
		channel.FaultDrop,
		channel.FaultDuplicate,
		channel.FaultReorder,
		channel.FaultCorrupt,
		channel.FaultDelay,
	}
	for _, pol := range allPolicies() {
		for _, k := range kinds {
			t.Run(fmt.Sprintf("%s/%s", pol, k), func(t *testing.T) {
				t.Parallel()
				f := freshnessFleet(t, len(phaseIndex))
				rep, err := dispatch.New(dispatch.Config{Shards: 1}).Sweep(t.Context(), f, fleet.SweepConfig{
					Concurrency: len(phaseIndex),
					Freshness:   pol,
				}, func(id uint64) core.AttestOptions {
					idx := phaseIndex[(id-1)%uint64(len(phaseIndex))]
					return core.AttestOptions{
						Opts: verifier.Options{Retry: matrixPolicy()},
						WrapVerifierChannel: func(ep channel.Endpoint) channel.Endpoint {
							return channel.NewFault(ep, channel.FaultConfig{
								Seed:   int64(id),
								Delay:  5 * time.Millisecond,
								Script: []channel.FaultOp{{Dir: channel.DirSend, Index: idx, Kind: k}},
							})
						},
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Healthy) != f.Size() {
					t.Fatalf("policy %s fault %v: healthy=%v compromised=%v unreachable=%v failed=%v",
						pol, k, rep.Healthy, rep.Compromised, rep.Unreachable, rep.Failed)
				}
			})
		}
	}
}

// TestFreshnessPoliciesIsolateTamper: under every policy a tampered
// member lands in Compromised and its classmates stay Healthy — nonce
// rotation and key rotation must not blunt (or over-trigger) detection.
func TestFreshnessPoliciesIsolateTamper(t *testing.T) {
	const size, bad = 4, 2
	for _, pol := range allPolicies() {
		t.Run(pol.String(), func(t *testing.T) {
			f := freshnessFleet(t, size)
			rep, err := dispatch.New(dispatch.Config{Shards: 1}).Sweep(t.Context(), f, fleet.SweepConfig{
				Concurrency: size,
				Freshness:   pol,
			}, func(id uint64) core.AttestOptions {
				if id != bad {
					return core.AttestOptions{}
				}
				sys, _ := f.System(id)
				return core.AttestOptions{TamperDevice: func(d *prover.Device) {
					d.Fabric.Mem.Frame(sys.DynFrames()[3])[5] ^= 2
				}}
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Compromised) != 1 || rep.Compromised[0] != bad {
				t.Fatalf("policy %s: compromised = %v, want [%d]", pol, rep.Compromised, bad)
			}
			if len(rep.Healthy) != size-1 {
				t.Fatalf("policy %s: healthy = %v", pol, rep.Healthy)
			}
		})
	}
}

// TestPerSweepMatchesLockstepBaseline pins the PerSweep policy to the
// pre-policy behaviour: a sweep with a pinned nonce must produce, for
// every device, exactly the H_Vrf of a direct lockstep attestation at
// that nonce through a cold-built plan. The freshness engine being off (PerSweep is the zero
// value) may not perturb a single MAC bit.
func TestPerSweepMatchesLockstepBaseline(t *testing.T) {
	const size = 3
	f := freshnessFleet(t, size)
	nonce := uint64(0xCAFEBABE)

	baseline := make(map[uint64][16]byte, size)
	for id := uint64(1); id <= size; id++ {
		sys, _ := f.System(id)
		baseline[id] = coldAttest(t, sys, nonce).HVrf
	}

	rep, err := dispatch.New(dispatch.Config{Shards: 1}).Sweep(t.Context(), f, fleet.SweepConfig{
		Concurrency: size,
		Nonce:       &nonce,
		// Freshness deliberately unset: the zero value must be PerSweep.
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Healthy) != size {
		t.Fatalf("healthy = %v", rep.Healthy)
	}
	if rep.PlanPatches != 0 {
		t.Fatalf("PerSweep sweep patched %d plans, want 0", rep.PlanPatches)
	}
	for _, r := range rep.Results {
		if r.Report.HVrf != baseline[r.DeviceID] {
			t.Fatalf("device %d: sweep H_Vrf differs from lockstep baseline at the same nonce", r.DeviceID)
		}
	}
}

// TestPerDeviceMatchesDirectAttest is the end-to-end differential: each
// device of a PerDevice sweep was attested through a WithNonce patch of
// the shared plan; re-attesting it directly (cold golden build, cold
// plan) at the very nonce the sweep drew must reproduce the same H_Vrf.
func TestPerDeviceMatchesDirectAttest(t *testing.T) {
	const size = 3
	for _, pol := range []attestation.FreshnessPolicy{attestation.PerDevice, attestation.RotateKey} {
		t.Run(pol.String(), func(t *testing.T) {
			f := freshnessFleet(t, size)
			rep, err := dispatch.New(dispatch.Config{Shards: 1}).Sweep(t.Context(), f, fleet.SweepConfig{
				Concurrency: size,
				Freshness:   pol,
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Healthy) != size {
				t.Fatalf("healthy=%v failed=%v", rep.Healthy, rep.Failed)
			}
			for _, r := range rep.Results {
				if !r.PlanPatched {
					t.Fatalf("device %d not patched under %s", r.DeviceID, pol)
				}
				sys, _ := f.System(r.DeviceID)
				if coldAttest(t, sys, r.Nonce).HVrf != r.Report.HVrf {
					t.Fatalf("device %d: patched-plan H_Vrf differs from cold attest at nonce %#x", r.DeviceID, r.Nonce)
				}
			}
		})
	}
}

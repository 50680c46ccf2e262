package attestation

import (
	"fmt"
	"strings"
)

// FreshnessPolicy selects the freshness unit of a fleet sweep: how much
// attestation material (nonce, MAC key) is renewed per device versus
// shared across the sweep. The paper's freshness argument (§5.2) rests
// on the nonce configured into the fabric and the PUF-derived key; the
// policies trade re-derivation cost against the blast radius of a
// captured transcript.
type FreshnessPolicy int

const (
	// PerSweep is the status quo and the zero value: one nonce for the
	// whole sweep, shared by every device of a class through one plan.
	// A captured transcript is replayable only within the same sweep
	// and only against the same device's key.
	PerSweep FreshnessPolicy = iota
	// PerDevice draws a fresh nonce for every device of every sweep.
	// The per-device cost is a WithNonce patch of the class's cached
	// plan — O(nonce column), not a rebuild — so the plan cache keeps
	// serving across rotations.
	PerDevice
	// RotateKey renews the PUF-derived MAC key of every device before
	// the sweep (core.System.RotateKey ships the next PUF circuit) and
	// additionally draws per-device nonces. The shipped circuit changes
	// the golden image, so each class's plan is rebuilt once per sweep;
	// the per-device nonces still come from WithNonce patches of that
	// rebuilt plan. Requires every fleet member to use the DynPart-PUF
	// key mode.
	RotateKey
)

// String returns the canonical flag spelling of the policy.
func (p FreshnessPolicy) String() string {
	switch p {
	case PerSweep:
		return "per-sweep"
	case PerDevice:
		return "per-device"
	case RotateKey:
		return "rotate-key"
	}
	return fmt.Sprintf("freshness(%d)", int(p))
}

// Valid reports whether p is one of the defined policies.
func (p FreshnessPolicy) Valid() bool {
	return p == PerSweep || p == PerDevice || p == RotateKey
}

// ParseFreshnessPolicy parses a policy name as accepted by the
// -freshness flag: the canonical spellings of String plus the obvious
// squashed/shortened variants, case-insensitively. The empty string is
// the default policy, PerSweep.
func ParseFreshnessPolicy(s string) (FreshnessPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "per-sweep", "persweep", "per_sweep", "sweep":
		return PerSweep, nil
	case "per-device", "perdevice", "per_device", "device":
		return PerDevice, nil
	case "rotate-key", "rotatekey", "rotate_key", "rotate":
		return RotateKey, nil
	}
	return PerSweep, fmt.Errorf("attestation: unknown freshness policy %q (want per-sweep, per-device or rotate-key)", s)
}

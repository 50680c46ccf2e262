// Package attack implements the adversaries of the paper's security
// evaluation (§7.2) as executable experiments. Each attack runs a full
// attestation against a compromised device, an impersonator or a
// man-in-the-middle, and reports whether SACHa detected it and through
// which mechanism (MAC failure or masked-bitstream mismatch).
package attack

import (
	"fmt"
	"math/rand"
	"slices"

	"sacha/internal/channel"
	"sacha/internal/cmac"
	"sacha/internal/core"
	"sacha/internal/device"
	"sacha/internal/fabric"
	"sacha/internal/protocol"
	"sacha/internal/prover"
	"sacha/internal/verifier"
)

// Result is the outcome of one adversary experiment.
type Result struct {
	// Name and Class identify the threat (paper §3 taxonomy: remote or
	// local adversary).
	Name  string
	Class string
	// Description summarises the attack.
	Description string
	// Detected reports whether the verifier rejected the run.
	Detected bool
	// Mechanism names what caught it.
	Mechanism string
	// Err is a protocol-level failure (also a detection, e.g. a replayer
	// returning frames in the wrong order).
	Err error
}

func verdict(rep *verifier.Report, err error) (bool, string) {
	if err != nil {
		return true, "protocol failure"
	}
	switch {
	case !rep.MACOK && !rep.ConfigOK:
		return true, "MAC mismatch + bitstream mismatch"
	case !rep.MACOK:
		return true, "MAC mismatch"
	case !rep.ConfigOK:
		return true, "masked bitstream mismatch"
	}
	return false, "not detected"
}

// DynPartModule is the first §7.2 threat: a local adversary adds a
// malicious hardware module to the dynamic partition after the verifier's
// configuration pass. The bounded configuration memory forces the module
// to live in DynMem, where readback exposes it.
func DynPartModule(sys *core.System) Result {
	r := Result{
		Name:        "malicious module in DynPart",
		Class:       "local",
		Description: "adversary splices a LUT ring into spare DynPart slots after configuration",
	}
	rep, err := sys.Attest(core.AttestOptions{TamperDevice: func(d *prover.Device) {
		// Use a high CLB column of the last row — guaranteed free of the
		// small demo application, i.e. genuinely "hidden" space.
		geo := d.Geo
		site := fabric.Site{Row: geo.Rows - 1, CLBCol: geo.ColumnsOf(device.ColCLB) - 2, CLBInCol: 3}
		var sels [6]uint64
		sels[0] = fabric.SelConst1
		if err := fabric.WriteLUT(d.Fabric.Mem, site, 5, true, 0x1, sels); err != nil {
			panic(err)
		}
	}})
	r.Err = err
	r.Detected, r.Mechanism = verdict(rep, err)
	return r
}

// StatPartModule is the second §7.2 threat: tampering with the static
// partition itself. The StatPart is minimal, so any addition displaces
// configuration bits that the full-memory readback covers.
func StatPartModule(sys *core.System) Result {
	r := Result{
		Name:        "malicious module in StatPart",
		Class:       "local",
		Description: "adversary rewrites static-partition configuration bits",
	}
	rep, err := sys.Attest(core.AttestOptions{TamperDevice: func(d *prover.Device) {
		statFrames := fabric.StatRegion(d.Geo).Frames()
		target := statFrames[len(statFrames)/3]
		d.Fabric.Mem.Frame(target)[17] ^= 0x00400000
	}})
	r.Err = err
	r.Detected, r.Mechanism = verdict(rep, err)
	return r
}

// Impersonation is the third §7.2 threat: another device mimics the
// prover. The impersonator is given maximal knowledge — the full static
// golden content and every configured frame — but not the PUF-backed key.
func Impersonation(sys *core.System) Result {
	r := Result{
		Name:        "prover impersonation",
		Class:       "local",
		Description: "key-less device with full bitstream knowledge answers the protocol",
	}
	static := sys.StaticImage()
	var guessedKey [16]byte
	rand.New(rand.NewSource(0xBAD)).Read(guessedKey[:])

	h, err := impersonator(static, guessedKey)
	if err != nil {
		r.Err = err
		return r
	}
	rep, err := sys.AttestAgainst(h, core.AttestOptions{})
	r.Err = err
	r.Detected, r.Mechanism = verdict(rep, err)
	return r
}

// impersonator answers the protocol from stored frames using a guessed
// key.
func impersonator(content *fabric.Image, key [16]byte) (channel.Handler, error) {
	mac, err := cmac.New(key[:])
	if err != nil {
		return nil, err
	}
	return func(req []byte) ([][]byte, error) {
		m, err := protocol.Decode(req)
		if err != nil {
			return nil, err
		}
		var resp *protocol.Message
		switch m.Type {
		case protocol.MsgICAPConfig:
			content.SetFrame(int(m.FrameIndex), m.Words)
			return nil, nil
		case protocol.MsgICAPReadback:
			words := content.Frame(int(m.FrameIndex))
			mac.Update(wordsToBytes(words))
			resp = &protocol.Message{Type: protocol.MsgFrameData, FrameIndex: m.FrameIndex, Words: words}
		case protocol.MsgMACChecksum:
			resp = &protocol.Message{Type: protocol.MsgMACValue, MAC: mac.Sum()}
		default:
			resp = protocol.Errorf("impersonator: unsupported %v", m.Type)
		}
		enc, err := resp.Encode()
		return [][]byte{enc}, err
	}, nil
}

func wordsToBytes(words []uint32) []byte {
	out := make([]byte, 0, len(words)*4)
	for _, w := range words {
		out = append(out, byte(w>>24), byte(w>>16), byte(w>>8), byte(w))
	}
	return out
}

// ExternalProxy is the fourth §7.2 threat: the adversary wires internal
// signals to the pins so an external computer can take over work while
// the FPGA runs malicious logic. The pin table lives in configuration
// memory, so the extra connection is visible to the verifier.
func ExternalProxy(sys *core.System) Result {
	r := Result{
		Name:        "external computing device",
		Class:       "local",
		Description: "adversary routes an internal net to an unused pad for an external helper",
	}
	rep, err := sys.Attest(core.AttestOptions{TamperDevice: func(d *prover.Device) {
		// Route some net to the last pin of the device (unused by the
		// golden design).
		pin := fabric.NumPins(d.Geo) - 1
		if err := fabric.WriteIOBPin(d.Fabric.Mem, pin, true, fabric.SelConst1); err != nil {
			panic(err)
		}
	}})
	r.Err = err
	r.Detected, r.Mechanism = verdict(rep, err)
	return r
}

// Replay is the fifth §7.2 threat: the adversary records an honest
// attestation and replays its responses while the device runs malicious
// logic. The fresh nonce in the new challenge makes the recorded
// transcript stale.
func Replay(sys *core.System) Result {
	r := Result{
		Name:        "replay attack",
		Class:       "local",
		Description: "adversary replays a recorded transcript against a fresh challenge",
	}

	// Step 1: record an honest attestation's responses.
	var recorded [][]byte
	honest := onResponse(sys.Device.Handler(), func(m []byte) []byte {
		recorded = append(recorded, slices.Clone(m))
		return m
	})
	n1 := uint64(0x1111)
	if rep, err := sys.AttestAgainst(honest, core.AttestOptions{Nonce: &n1}); err != nil || !rep.Accepted {
		r.Err = fmt.Errorf("attack: honest recording run failed: %v", err)
		return r
	}

	// Step 2: replay against a fresh nonce.
	n2 := uint64(0x2222)
	rep, err := sys.AttestAgainst(replayer(recorded), core.AttestOptions{Nonce: &n2})
	r.Err = err
	r.Detected, r.Mechanism = verdict(rep, err)
	if r.Detected && err == nil && rep.MACOK {
		r.Mechanism = "stale nonce in masked bitstream (MAC of old transcript still valid)"
	}
	return r
}

// onResponse wraps a handler and passes each of its responses through f.
func onResponse(h channel.Handler, f func([]byte) []byte) channel.Handler {
	return func(req []byte) ([][]byte, error) {
		resps, err := h(req)
		out := make([][]byte, len(resps))
		for i, resp := range resps {
			out[i] = f(resp)
		}
		return out, err
	}
}

// replayer answers readback and checksum requests with the recorded
// responses in order and drops configuration: the adversary ignores the
// fresh challenge.
func replayer(recorded [][]byte) channel.Handler {
	next := 0
	return func(req []byte) ([][]byte, error) {
		m, err := protocol.Decode(req)
		if err != nil {
			return nil, err
		}
		switch m.Type {
		case protocol.MsgICAPConfig, protocol.MsgICAPConfigBatch:
			return nil, nil
		case protocol.MsgICAPReadback, protocol.MsgMACChecksum:
			if next >= len(recorded) {
				return nil, fmt.Errorf("attack: replay transcript exhausted")
			}
			next++
			return recorded[next-1 : next], nil
		}
		enc, err := protocol.Errorf("replayer: unsupported %v", m.Type).Encode()
		return [][]byte{enc}, err
	}
}

// NonceReuse targets the freshness policy engine's patched-plan path: an
// adversary records the MAC value (H_Dev) of an honest session run under
// one nonce of a patchable plan and substitutes it for the checksum
// answer of a later session whose plan was rotated to a fresh nonce with
// Plan.WithNonce. If the patch failed to rotate the verifier's H_Vrf —
// i.e. the patched expected frames still described the old nonce — the
// stale MAC would verify and the device could skip attesting. The MAC
// must mismatch.
func NonceReuse(sys *core.System) Result {
	r := Result{
		Name:        "H_Dev reuse across nonce rotation",
		Class:       "local",
		Description: "adversary answers a rotated-nonce challenge with the previous session's recorded MAC",
	}
	plan, err := sys.PatchablePlan(verifier.Options{})
	if err != nil {
		r.Err = fmt.Errorf("attack: building patchable plan: %w", err)
		return r
	}

	// Session 1: honest run at nonce A; record the device's MAC response.
	planA, err := plan.WithNonce(0xA11CE)
	if err != nil {
		r.Err = err
		return r
	}
	var staleMAC []byte
	honest := onResponse(sys.Device.Handler(), func(m []byte) []byte {
		if len(m) > 0 && m[0] == byte(protocol.MsgMACValue) {
			staleMAC = slices.Clone(m)
		}
		return m
	})
	if rep, err := sys.AttestPlanAgainst(planA, honest, core.AttestOptions{}); err != nil || !rep.Accepted {
		r.Err = fmt.Errorf("attack: honest recording run failed: %v", err)
		return r
	}
	if staleMAC == nil {
		r.Err = fmt.Errorf("attack: recording run produced no MAC message")
		return r
	}

	// Session 2: the plan rotates to nonce B; the device cooperates fully
	// but swaps in the stale H_Dev at checksum time.
	planB, err := plan.WithNonce(0xB0B)
	if err != nil {
		r.Err = err
		return r
	}
	rep, err := sys.AttestPlanAgainst(planB, onResponse(sys.Device.Handler(), func(m []byte) []byte {
		if len(m) > 0 && m[0] == byte(protocol.MsgMACValue) {
			return staleMAC
		}
		return m
	}), core.AttestOptions{})
	r.Err = err
	r.Detected, r.Mechanism = verdict(rep, err)
	return r
}

// StaleNonceReplay is the cross-session variant: the adversary replays a
// complete transcript (frames and MAC) recorded under one nonce of a
// patchable plan against a session whose plan was patched to a fresh
// nonce. The replayed transcript is self-consistent — its MAC verifies —
// so only the nonce bits in the masked bitstream comparison can expose
// it. This is the adversarial proof that WithNonce really rotates the
// expected comparison frames, not just the configuration packets.
func StaleNonceReplay(sys *core.System) Result {
	r := Result{
		Name:        "stale-nonce transcript replay",
		Class:       "local",
		Description: "adversary replays a recorded patchable-plan transcript against a rotated nonce",
	}
	plan, err := sys.PatchablePlan(verifier.Options{})
	if err != nil {
		r.Err = fmt.Errorf("attack: building patchable plan: %w", err)
		return r
	}

	planA, err := plan.WithNonce(0x1111)
	if err != nil {
		r.Err = err
		return r
	}
	var recorded [][]byte
	honest := onResponse(sys.Device.Handler(), func(m []byte) []byte {
		recorded = append(recorded, slices.Clone(m))
		return m
	})
	if rep, err := sys.AttestPlanAgainst(planA, honest, core.AttestOptions{}); err != nil || !rep.Accepted {
		r.Err = fmt.Errorf("attack: honest recording run failed: %v", err)
		return r
	}

	planB, err := plan.WithNonce(0x2222)
	if err != nil {
		r.Err = err
		return r
	}
	rep, err := sys.AttestPlanAgainst(planB, replayer(recorded), core.AttestOptions{})
	r.Err = err
	r.Detected, r.Mechanism = verdict(rep, err)
	if r.Detected && err == nil && rep.MACOK {
		r.Mechanism = "stale nonce in masked bitstream (MAC of old transcript still valid)"
	}
	return r
}

// RemoteUpdateTamper is the "remote adversary" of the paper's §3
// taxonomy (the Stuxnet-style threat): a man-in-the-middle alters
// configuration frames in flight, attempting a malicious remote update.
// The device faithfully configures what it receives, so the readback
// exposes the altered content against the verifier's golden image.
func RemoteUpdateTamper(sys *core.System) Result {
	r := Result{
		Name:        "malicious remote update (MITM)",
		Class:       "remote",
		Description: "adversary rewrites ICAP_config frames between verifier and device",
	}
	// Corrupt a handful of frames spread across the update. The cadence
	// must scale with the geometry: a fixed period larger than the
	// dynamic partition's frame count would never fire on small devices
	// and the "attack" would silently degenerate into an honest run.
	period := len(fabric.DynRegion(sys.Geo).Frames()) / 8
	if period < 1 {
		period = 1
	}
	tampered := 0
	h := sys.Device.Handler()
	rep, err := sys.AttestAgainst(func(req []byte) ([][]byte, error) {
		if len(req) > 0 && req[0] == byte(protocol.MsgICAPConfig) {
			tampered++
			if tampered%period == 0 {
				req = slices.Clone(req)
				req[len(req)/2] ^= 0x20
			}
		}
		return h(req)
	}, core.AttestOptions{})
	r.Err = err
	r.Detected, r.Mechanism = verdict(rep, err)
	return r
}

// Named is one registered adversary: a stable key for schedulers and
// reports, plus the experiment function.
type Named struct {
	Key string
	Fn  func(*core.System) Result
}

// Registry lists every implemented adversary in a stable order — the
// single source All and the campaign scheduler draw from, so a new
// adversary added here is automatically replayed one-shot (All) and
// soaked long-horizon (internal/campaign).
func Registry() []Named {
	return []Named{
		{Key: "dynpart-module", Fn: DynPartModule},
		{Key: "statpart-module", Fn: StatPartModule},
		{Key: "impersonation", Fn: Impersonation},
		{Key: "external-proxy", Fn: ExternalProxy},
		{Key: "replay", Fn: Replay},
		{Key: "nonce-reuse", Fn: NonceReuse},
		{Key: "stale-nonce-replay", Fn: StaleNonceReplay},
		{Key: "remote-update-tamper", Fn: RemoteUpdateTamper},
	}
}

// All runs every §7.2 adversary plus the §3 remote adversary, each
// against a freshly provisioned system from newSys.
func All(newSys func() (*core.System, error)) ([]Result, error) {
	reg := Registry()
	out := make([]Result, 0, len(reg))
	for _, atk := range reg {
		sys, err := newSys()
		if err != nil {
			return nil, err
		}
		out = append(out, atk.Fn(sys))
	}
	return out, nil
}

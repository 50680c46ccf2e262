// Package core is the public entry point of the SACHa library: it
// assembles the paper's full system — a prover FPGA with a minimal static
// partition, an enrolled key (register or PUF), a golden bitstream for an
// intended application plus a nonce partition, and a verifier — and runs
// the self-attestation protocol end to end.
//
// Typical use:
//
//	sys, _ := core.NewSystem(core.Config{App: netlist.Blinker(16)})
//	report, _ := sys.Attest(core.AttestOptions{})
//	// report.Accepted == true for an untampered device
package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"sacha/internal/attestation"
	"sacha/internal/bitstream"
	"sacha/internal/channel"
	"sacha/internal/device"
	"sacha/internal/ethsim"
	"sacha/internal/fabric"
	"sacha/internal/netlist"
	"sacha/internal/protocol"
	"sacha/internal/prover"
	"sacha/internal/puf"
	"sacha/internal/signature"
	"sacha/internal/sim"
	"sacha/internal/timing"
	"sacha/internal/verifier"
)

// KeyMode selects how the MAC key is provisioned (paper §5.2.1).
type KeyMode int

const (
	// KeyRegister stores the key in a static-partition register (the
	// proof-of-concept configuration).
	KeyRegister KeyMode = iota
	// KeyStatPUF derives the key from a PUF in the static partition.
	KeyStatPUF
	// KeyDynPUF derives the key from a PUF circuit the verifier ships in
	// the dynamic partition (allows key rotation).
	KeyDynPUF
)

// Config assembles a System.
type Config struct {
	// Geo is the device geometry; defaults to the XC6VLX240T.
	Geo *device.Geometry
	// App is the intended application for the dynamic partition;
	// defaults to a 16-bit blinker.
	App *netlist.Design
	// KeyMode selects the key source.
	KeyMode KeyMode
	// DeviceID identifies the physical device (PUF identity, enrollment
	// database key).
	DeviceID uint64
	// PUFNoise is the raw PUF bit-error probability in 1/10000 units;
	// defaults to 300 (3%).
	PUFNoise int
	// BuildID seeds the synthesised static-partition image.
	BuildID uint64
	// ROM, if non-empty, is data embedded into the dynamic partition's
	// BRAM content columns (lookup tables, firmware for a soft core).
	// It is covered by the MAC and the golden comparison like any other
	// configuration.
	ROM []byte
	// EnableSignature provisions the ECDSA extension.
	EnableSignature bool
	// LabLatency is the per-message network latency of the simulated
	// channel; defaults to the paper's lab value. Set negative for zero.
	LabLatency time.Duration
	// Seed drives all randomness (enrollment, keys) for reproducibility.
	Seed int64
}

// System is a deployed prover plus its enrolled verifier.
type System struct {
	Geo    *device.Geometry
	Device *prover.Device
	// Key is the verifier's enrolled MAC key for this device (from the PUF
	// enrollment database). It is a per-Run input, so rotating it does not
	// invalidate plans.
	Key [16]byte
	// DB is the verifier-side PUF enrollment database.
	DB *puf.Database
	// ChannelTime accumulates wire and latency virtual time of the
	// simulated link.
	ChannelTime *sim.Timeline

	sigVerifier *signature.Verifier // checks signature-mode responses; nil without EnableSignature
	vrfTime     *sim.Timeline       // verifier-side software time

	cfg         Config
	app         *netlist.Design
	base        *fabric.Image // static golden content
	appRegion   *fabric.Region
	nonceRegion *fabric.Region
	appFrames   []int // DynMem minus the nonce column, transmission order
	nonceFrames []int // the nonce column
	rng         *rand.Rand
	circuitID   uint64        // current DynPUF circuit (0 = StatPart PUF / register)
	helper      []byte        // current PUF helper data (nil in KeyRegister mode)
	golden0     *fabric.Image // memoized nonce-0 golden (classGolden); nil until first use, cleared by RotateKey
	digest0     [32]byte      // fabric.NonceFreeDigest of golden0, valid while golden0 is set

	// AppPlacement maps the application's pins for examples/tests; it is
	// identical across attestations (deterministic placement).
	AppPlacement *fabric.Placement
}

// NewSystem provisions a device and enrolls it with a verifier.
func NewSystem(cfg Config) (*System, error) {
	if cfg.Geo == nil {
		cfg.Geo = device.XC6VLX240T()
	}
	if cfg.App == nil {
		cfg.App = netlist.Blinker(16)
	}
	if cfg.PUFNoise == 0 {
		cfg.PUFNoise = 300
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	s := &System{
		Geo:         cfg.Geo,
		DB:          puf.NewDatabase(),
		ChannelTime: sim.NewTimeline(),
		vrfTime:     sim.NewTimeline(),
		cfg:         cfg,
		app:         cfg.App,
		appRegion:   fabric.AppRegion(cfg.Geo),
		nonceRegion: fabric.NonceRegion(cfg.Geo),
		rng:         rng,
	}

	// Build the static golden content and the boot flash.
	statFrames := fabric.StatRegion(cfg.Geo).Frames()
	s.base = fabric.NewImage(cfg.Geo)
	fabric.FillStatic(s.base, statFrames, cfg.BuildID)
	bootMem := bitstream.FromImage(s.base, statFrames)

	// Frame split: the application phase covers every dynamic frame that
	// is not the nonce column; the nonce phase covers the nonce column.
	nonceFrames, err := fabric.NonceColumnFrames(cfg.Geo)
	if err != nil {
		return nil, err
	}
	s.nonceFrames = nonceFrames
	nonceCol := map[int]bool{}
	for _, idx := range nonceFrames {
		nonceCol[idx] = true
	}
	for _, idx := range fabric.DynRegion(cfg.Geo).Frames() {
		if !nonceCol[idx] {
			s.appFrames = append(s.appFrames, idx)
		}
	}

	// Key provisioning and enrollment.
	var keySrc prover.KeySource
	var key [16]byte
	switch cfg.KeyMode {
	case KeyRegister:
		rng.Read(key[:])
		keySrc = prover.RegisterKey(key)
	case KeyStatPUF, KeyDynPUF:
		if cfg.KeyMode == KeyDynPUF {
			s.circuitID = 1
		}
		phys := &puf.Physical{DeviceID: cfg.DeviceID, CircuitID: s.circuitID, NoiseProb: cfg.PUFNoise}
		enr := puf.Enroll(phys, rng)
		key = enr.Key
		s.DB.Store(cfg.DeviceID, s.circuitID, enr.Key)
		s.helper = enr.Helper.Offset
		keySrc = &prover.PUFKey{Phys: phys, Helper: enr.Helper, Rng: rng}
	default:
		return nil, fmt.Errorf("core: unknown key mode %d", cfg.KeyMode)
	}

	var signer *signature.Signer
	if cfg.EnableSignature {
		var err error
		signer, err = signature.Generate(rng)
		if err != nil {
			return nil, err
		}
	}

	dev, err := prover.New(prover.Config{
		Geo:     cfg.Geo,
		BootMem: bootMem,
		Key:     keySrc,
		Signer:  signer,
	})
	if err != nil {
		return nil, err
	}
	if err := dev.PowerOn(); err != nil {
		return nil, err
	}
	s.Device = dev

	s.Key = key
	if signer != nil {
		if s.sigVerifier, err = signature.NewVerifier(signer.PublicKey()); err != nil {
			return nil, err
		}
	}

	// Pre-place the application once to expose its pin map (placement is
	// deterministic, so this matches every golden image built later).
	probe := fabric.NewImage(cfg.Geo)
	s.AppPlacement, err = fabric.PlaceDesign(probe, s.appRegion, s.app)
	if err != nil {
		return nil, fmt.Errorf("core: placing application: %w", err)
	}
	return s, nil
}

// StaticImage returns a copy of the golden static-partition content — the
// knowledge a strong local adversary (who has eavesdropped on earlier
// attestations) is assumed to possess.
func (s *System) StaticImage() *fabric.Image { return s.base.Clone() }

// Golden builds the full golden image for a nonce: static content plus
// the placed application (and, in DynPUF mode, the shipped PUF circuit's
// marker) plus the placed nonce register.
func (s *System) Golden(nonce uint64) (*fabric.Image, error) {
	im := s.base.Clone()
	pl := fabric.NewPlacer(im, s.appRegion)
	if _, err := pl.Place(s.app); err != nil {
		return nil, err
	}
	if s.cfg.KeyMode == KeyDynPUF {
		// The shipped PUF circuit occupies fabric alongside the
		// application; its configuration identifies the circuit, so the
		// verifier attests which key generation is loaded.
		if _, err := pl.Place(netlist.NonceRegister(16, s.circuitID)); err != nil {
			return nil, err
		}
	}
	if _, err := fabric.PlaceDesign(im, s.nonceRegion, netlist.NonceRegister(fabric.NonceBits, nonce)); err != nil {
		return nil, err
	}
	if len(s.cfg.ROM) > 0 {
		if err := fabric.PlaceROM(im, s.appRegion, s.cfg.ROM); err != nil {
			return nil, err
		}
	}
	return im, nil
}

// ReadDeviceROM reads the embedded ROM back from the device's live
// configuration memory.
func (s *System) ReadDeviceROM() ([]byte, error) {
	return fabric.ReadROM(s.Device.Fabric.Mem, s.appRegion, len(s.cfg.ROM))
}

// DynFrames returns the dynamic-configuration transmission order:
// application frames first, nonce frames last (the two configuration
// steps of Fig. 8).
func (s *System) DynFrames() []int {
	out := make([]int, 0, len(s.appFrames)+len(s.nonceFrames))
	out = append(out, s.appFrames...)
	out = append(out, s.nonceFrames...)
	return out
}

// RotateKey ships a fresh PUF circuit (paper §5.2.1, second option): the
// verifier enrolls the next circuit of the device's PUF, the golden
// bitstream gains the new circuit's configuration, and both sides switch
// to the new key. Only valid in KeyDynPUF mode.
func (s *System) RotateKey() error {
	if s.cfg.KeyMode != KeyDynPUF {
		return fmt.Errorf("core: key rotation requires the DynPart-PUF key mode")
	}
	s.circuitID++
	phys := &puf.Physical{DeviceID: s.cfg.DeviceID, CircuitID: s.circuitID, NoiseProb: s.cfg.PUFNoise}
	enr := puf.Enroll(phys, s.rng)
	s.DB.Store(s.cfg.DeviceID, s.circuitID, enr.Key)
	s.helper = enr.Helper.Offset
	s.Device.SetKeySource(&prover.PUFKey{Phys: phys, Helper: enr.Helper, Rng: s.rng})
	s.Key = enr.Key
	// The shipped circuit's marker changes the golden image, so the
	// memoized class golden (and, via ClassKey, any cached plans of the
	// old generation) is stale.
	s.golden0 = nil
	return nil
}

// KeyGeneration is the current key generation: the DynPUF circuit ID,
// which starts at 1 in KeyDynPUF mode and advances with every
// RotateKey. Register- and static-PUF-keyed systems report 0 (their
// key never rotates).
func (s *System) KeyGeneration() uint64 { return s.circuitID }

// Enrollment is the persistable key-provisioning state of a system —
// what registry.Durable journals so a verifier restart resumes from
// the same generation AND the same key. The key bytes are included
// because PUF enrollment draws from the device's rng stream: the key
// is not a pure function of (device, generation) and cannot be
// re-derived after a restart.
type Enrollment struct {
	Generation uint64
	Key        [16]byte
	Helper     []byte
}

// Enrollment snapshots the system's current key-provisioning state.
// The helper slice is a copy.
func (s *System) Enrollment() Enrollment {
	return Enrollment{
		Generation: s.circuitID,
		Key:        s.Key,
		Helper:     append([]byte(nil), s.helper...),
	}
}

// RestoreEnrollment rewinds a freshly provisioned system to a persisted
// key generation: both sides switch to the stored key and helper data,
// exactly as if the intervening RotateKey calls had happened in this
// process. Only valid in KeyDynPUF mode — the one mode whose
// generations advance — and only forward (a store can never be behind a
// fresh provisioning, whose generation is 1).
func (s *System) RestoreEnrollment(e Enrollment) error {
	if s.cfg.KeyMode != KeyDynPUF {
		return fmt.Errorf("core: restoring an enrollment requires the DynPart-PUF key mode")
	}
	if e.Generation < 1 {
		return fmt.Errorf("core: cannot restore key generation %d (DynPUF generations start at 1)", e.Generation)
	}
	if len(e.Helper) != len(s.helper) {
		return fmt.Errorf("core: stored helper data is %d bytes, this device's PUF needs %d", len(e.Helper), len(s.helper))
	}
	if e.Generation == s.circuitID && e.Key == s.Key {
		return nil
	}
	helper := append([]byte(nil), e.Helper...)
	s.circuitID = e.Generation
	s.DB.Store(s.cfg.DeviceID, s.circuitID, e.Key)
	phys := &puf.Physical{DeviceID: s.cfg.DeviceID, CircuitID: s.circuitID, NoiseProb: s.cfg.PUFNoise}
	s.Device.SetKeySource(&prover.PUFKey{Phys: phys, Helper: puf.HelperData{Offset: helper}, Rng: s.rng})
	s.Key = e.Key
	s.helper = helper
	s.golden0 = nil
	return nil
}

// GoldenDigest is the nonce-independent digest of the system's current
// golden image — the cross-check a durable registry stores at
// enrollment and verifies at boot, so a state directory from a
// different build, application or geometry is refused instead of
// silently producing Compromised verdicts fleet-wide. The nonce-0
// golden is memoized (shared with PatchableSpec) and cleared by
// RotateKey, so the digest always tracks the current generation.
func (s *System) GoldenDigest() ([32]byte, error) {
	if _, err := s.classGolden(); err != nil {
		return [32]byte{}, err
	}
	return s.digest0, nil
}

// KeyMode returns the system's key provisioning mode.
func (s *System) KeyMode() KeyMode { return s.cfg.KeyMode }

// AttestOptions tune one attestation.
type AttestOptions struct {
	// Nonce fixes the nonce; nil draws a fresh one.
	Nonce *uint64
	// Opts shapes the plan (Offset, Permutation, AppSteps,
	// SignatureMode, ConfigBatch, Compress, Delta) and the run (Span,
	// Retry, DeltaWarm); see verifier.Options. With a precomputed plan
	// (AttestWithPlan, AttestPlanAgainst) the plan-shaping fields are
	// ignored: the plan fixed them when it was built.
	Opts verifier.Options
	// TamperDevice, if non-nil, runs after configuration completes and
	// before readback — the adversary's window.
	TamperDevice func(*prover.Device)
	// WrapVerifierChannel, if non-nil, wraps the verifier-side endpoint
	// before the protocol runs — the hook fault-tolerance experiments use
	// to put a channel.FaultEndpoint between verifier and device.
	WrapVerifierChannel func(channel.Endpoint) channel.Endpoint
}

// Plan builds the fleet-shared half of this system's attestation for a
// nonce: the class plan of PatchablePlan, patched to the nonce with
// Plan.WithNonce — an immutable attestation.Plan (pre-encoded
// configuration/readback messages, masked golden comparison frames,
// CAPTURE prediction) bit-identical to a cold build from Golden(nonce).
// Every device of the same class (see ClassKey) can be attested with the
// same plan, each with its own per-session Run and enrolled key.
func (s *System) Plan(nonce uint64, opts verifier.Options) (*attestation.Plan, error) {
	plan, err := s.PatchablePlan(opts)
	if err != nil {
		return nil, err
	}
	return plan.WithNonce(nonce)
}

// PatchableSpec returns the attestation.Spec describing this system's
// class plan — the cache key input of attestation.PlanCache. Its golden
// image is built once at nonce 0 (memoized until a key rotation changes
// the class), and attestation.SpecKey ignores the nonce value, so one
// cached plan serves every nonce of this system's class and systems
// with equal ClassKey share it. Use Plan.WithNonce to re-nonce the built
// plan per session.
func (s *System) PatchableSpec(opts verifier.Options) (attestation.Spec, error) {
	golden, err := s.classGolden()
	if err != nil {
		return attestation.Spec{}, err
	}
	return attestation.Spec{
		Geo:           s.Geo,
		Golden:        golden,
		GoldenDigest:  s.digest0,
		DynFrames:     s.DynFrames(),
		Offset:        opts.Offset,
		Permutation:   opts.Permutation,
		AppSteps:      opts.AppSteps,
		SignatureMode: opts.SignatureMode,
		ConfigBatch:   opts.ConfigBatch,
		Compress:      opts.Compress,
		Delta:         opts.Delta,
	}, nil
}

// classGolden returns the memoized nonce-0 golden image of the current
// key generation, shared by PatchableSpec and GoldenDigest, and
// memoizes its nonce-free digest in digest0 alongside: the plan cache's
// key, hashed once per generation instead of on every cache lookup.
func (s *System) classGolden() (*fabric.Image, error) {
	if s.golden0 == nil {
		golden, err := s.Golden(0)
		if err != nil {
			return nil, err
		}
		if s.digest0, err = fabric.NonceFreeDigest(golden, fabric.NonceBits); err != nil {
			return nil, err
		}
		s.golden0 = golden
	}
	return s.golden0, nil
}

// runOpts assembles the attestation.RunOpts of one session: this
// system's enrolled key, signature verifier and verifier timeline, plus
// the per-run fields of opts.
func (s *System) runOpts(opts verifier.Options) attestation.RunOpts {
	return attestation.RunOpts{
		Key:         s.Key,
		SigVerifier: s.sigVerifier,
		Retry:       opts.Retry,
		Timeline:    s.vrfTime,
		DeltaWarm:   opts.DeltaWarm,
		Span:        opts.Span,
	}
}

// PatchablePlan builds the plan of this system's class at nonce 0:
// derive the per-session plan with WithNonce instead of rebuilding.
func (s *System) PatchablePlan(opts verifier.Options) (*attestation.Plan, error) {
	spec, err := s.PatchableSpec(opts)
	if err != nil {
		return nil, err
	}
	return attestation.NewPlan(spec)
}

// AttestPlanAgainst runs a precomputed plan against an arbitrary
// prover-side handler — the adversary-experiment counterpart of
// AttestWithPlan, used to replay captured transcripts against patched
// (re-nonced) plans.
func (s *System) AttestPlanAgainst(plan *attestation.Plan, h channel.Handler, opts AttestOptions) (*attestation.Report, error) {
	return s.runPlan(plan, h, opts)
}

// ClassKey identifies the fleet-invariant attestation inputs of this
// system: two systems with equal class keys produce identical golden
// images for any common nonce, so one attestation.Plan serves both. The
// key covers geometry, application (by its netlist name — the built-in
// app registry names are unique), build ID, key mode, the current DynPUF
// circuit generation and the embedded ROM. Per-device identity (device
// ID, PUF enrollment, MAC key) is deliberately excluded: it is per-Run.
func (s *System) ClassKey() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|%d|%d|%d|", s.Geo.Name, s.app.Name, s.cfg.BuildID, s.cfg.KeyMode, s.circuitID)
	h.Write(s.cfg.ROM)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// handler starts a device session and returns its handler, wrapped
// with the adversary hook if requested.
func (s *System) handler(opts AttestOptions) channel.Handler {
	h := s.Device.Handler()
	if opts.TamperDevice == nil {
		return h
	}
	// The adversary's window is after configuration and before
	// readback: the hook fires on the prover side when the device is
	// about to process the first ICAP_readback command. Under the
	// reliable transport the command rides inside a sequence envelope
	// (type + seq + crc before the inner message), so the wrapper peeks
	// at both spellings.
	isReadback := func(m []byte) bool {
		if len(m) > 0 && m[0] == byte(protocol.MsgICAPReadback) {
			return true
		}
		return len(m) > protocol.SeqHeader && m[0] == byte(protocol.MsgSeqReq) &&
			m[protocol.SeqHeader] == byte(protocol.MsgICAPReadback)
	}
	armed := false
	return func(req []byte) ([][]byte, error) {
		if !armed && isReadback(req) {
			armed = true
			opts.TamperDevice(s.Device)
		}
		return h(req)
	}
}

// Attest runs one full attestation over a simulated lab channel and
// returns the verifier's report.
func (s *System) Attest(opts AttestOptions) (*attestation.Report, error) {
	return s.AttestAgainst(s.handler(opts), opts)
}

// AttestWithPlan runs one attestation using a precomputed shared plan —
// the per-device path of a fleet sweep. The plan fixes the nonce (see
// Plan.WithNonce) and the plan-shaping options, Compress and Delta
// included; opts contributes only the per-run knobs (Retry, Span,
// DeltaWarm, adversary and channel hooks).
func (s *System) AttestWithPlan(plan *attestation.Plan, opts AttestOptions) (*attestation.Report, error) {
	return s.runPlan(plan, s.handler(opts), opts)
}

// AttestAgainst runs the verifier against an arbitrary prover-side
// handler — the hook the adversary experiments use to substitute
// impersonators, proxies and replayers for the genuine device.
func (s *System) AttestAgainst(h channel.Handler, opts AttestOptions) (*attestation.Report, error) {
	nonce := s.rng.Uint64()
	if opts.Nonce != nil {
		nonce = *opts.Nonce
	}
	plan, err := s.Plan(nonce, opts.Opts)
	if err != nil {
		return nil, err
	}
	return s.runPlan(plan, h, opts)
}

// runPlan runs one per-session Run over the simulated lab link, with the
// prover handler inline on the verifier's side of it.
func (s *System) runPlan(plan *attestation.Plan, h channel.Handler, opts AttestOptions) (*attestation.Report, error) {
	lat := s.cfg.LabLatency
	if lat == 0 {
		lat = timing.LabCommandLatency
	} else if lat < 0 {
		lat = 0
	}
	// The simulated lab link carries real Ethernet frames: the verifier
	// is a lab host, the prover the SACHa ETH core (Fig. 10).
	var prvMAC ethsim.MAC
	prvMAC[0] = 0x02 // locally administered
	binary.BigEndian.PutUint32(prvMAC[2:6], uint32(s.cfg.DeviceID))
	link := channel.NewInline(h, channel.SimConfig{
		Timeline:       s.ChannelTime,
		MessageLatency: lat,
		Ethernet:       true,
		AddrA:          ethsim.MAC{0x02, 0xFF, 0, 0, 0, 1}, // verifier host
		AddrB:          prvMAC,
	})

	var vep channel.Endpoint = link
	if opts.WrapVerifierChannel != nil {
		vep = opts.WrapVerifierChannel(vep)
	}
	rep, err := plan.Run(vep, s.runOpts(opts.Opts))
	vep.Close()
	link.Close()
	if hErr := link.Err(); hErr != nil {
		return rep, fmt.Errorf("core: prover: %w", hErr)
	}
	return rep, err
}

// VirtualDuration sums the virtual time of channel, prover and verifier —
// the end-to-end protocol duration in the simulated lab.
func (s *System) VirtualDuration() time.Duration {
	return s.ChannelTime.Total() + s.Device.Timeline.Total() + s.vrfTime.Total()
}

// ResetTimelines clears all virtual-time accounting.
func (s *System) ResetTimelines() {
	s.ChannelTime.Reset()
	s.Device.Timeline.Reset()
	s.vrfTime.Reset()
}

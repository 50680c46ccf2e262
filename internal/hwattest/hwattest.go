// Package hwattest realises the paper's motivating scenario (Fig. 1,
// right): an embedded system pairing a microprocessor with an FPGA, where
// the FPGA serves as the trusted hardware module for hardware-based
// attestation of the processor's software — but, being configurable, must
// first prove its *own* state with SACHa.
//
// A combined attestation therefore has two stages:
//
//  1. SACHa self-attestation of the FPGA (internal/core);
//  2. the now-trusted FPGA module reads the processor's program memory
//     over the local bus and MACs it together with a verifier nonce.
//
// Only if both stages pass is the hardware/software system accepted.
package hwattest

import (
	"encoding/binary"
	"fmt"

	"sacha/internal/attestation"
	"sacha/internal/cmac"
	"sacha/internal/core"
	"sacha/internal/cpu"
)

// Module is the attestation core inside the FPGA's dynamic partition:
// it has bus access to the processor's memory and shares a key with the
// verifier. It must only be trusted after SACHa accepted the FPGA.
type Module struct {
	key [16]byte
	bus *cpu.Machine
}

// NewModule attaches the module to a processor.
func NewModule(key [16]byte, target *cpu.Machine) *Module {
	return &Module{key: key, bus: target}
}

// AttestSoftware MACs the first progWords of the processor's memory (the
// program region) with a nonce.
func (m *Module) AttestSoftware(nonce uint64, progWords int) ([16]byte, error) {
	if progWords <= 0 || progWords > len(m.bus.Mem) {
		return [16]byte{}, fmt.Errorf("hwattest: program region of %d words invalid", progWords)
	}
	mac, err := cmac.New(m.key[:])
	if err != nil {
		return [16]byte{}, err
	}
	var nb [8]byte
	binary.BigEndian.PutUint64(nb[:], nonce)
	mac.Update(nb[:])
	mac.Update(m.bus.MemBytes()[:progWords*2])
	return mac.Sum(), nil
}

// SoftwareVerifier holds the golden program image.
type SoftwareVerifier struct {
	Key    [16]byte
	Golden []uint16
}

// Expected computes the golden tag for a nonce.
func (v *SoftwareVerifier) Expected(nonce uint64) ([16]byte, error) {
	mac, err := cmac.New(v.Key[:])
	if err != nil {
		return [16]byte{}, err
	}
	var nb [8]byte
	binary.BigEndian.PutUint64(nb[:], nonce)
	mac.Update(nb[:])
	buf := make([]byte, 0, len(v.Golden)*2)
	for _, w := range v.Golden {
		buf = append(buf, byte(w>>8), byte(w))
	}
	mac.Update(buf)
	return mac.Sum(), nil
}

// Report is the outcome of a combined hardware/software attestation.
type Report struct {
	// FPGA is the SACHa self-attestation report (nil if skipped because
	// the FPGA stage already failed to run).
	FPGA *attestation.Report
	// FPGATrusted is the stage-1 verdict.
	FPGATrusted bool
	// SoftwareOK is the stage-2 verdict.
	SoftwareOK bool
	// Accepted requires both.
	Accepted bool
}

// System is the combined embedded system plus its verifier-side state.
type System struct {
	FPGA    *core.System
	CPU     *cpu.Machine
	Module  *Module
	SwVrf   *SoftwareVerifier
	program []uint16
	nonces  uint64
}

// New builds the combined system: a SACHa FPGA plus a processor loaded
// with the given program.
func New(fpgaCfg core.Config, program []uint16, memWords int) (*System, error) {
	fpga, err := core.NewSystem(fpgaCfg)
	if err != nil {
		return nil, err
	}
	m, err := cpu.New(memWords)
	if err != nil {
		return nil, err
	}
	if err := m.Load(program); err != nil {
		return nil, err
	}
	// The module key is provisioned alongside the SACHa enrollment; it is
	// independent of the FPGA's own attestation key.
	var key [16]byte
	copy(key[:], "sw-attest-key-01")
	return &System{
		FPGA:    fpga,
		CPU:     m,
		Module:  NewModule(key, m),
		SwVrf:   &SoftwareVerifier{Key: key, Golden: append([]uint16(nil), program...)},
		program: program,
	}, nil
}

// Attest runs both stages.
func (s *System) Attest(opts core.AttestOptions) (*Report, error) {
	rep := &Report{}
	fpgaRep, err := s.FPGA.Attest(opts)
	if err != nil {
		return nil, fmt.Errorf("hwattest: FPGA stage: %w", err)
	}
	rep.FPGA = fpgaRep
	rep.FPGATrusted = fpgaRep.Accepted
	if !rep.FPGATrusted {
		// An untrusted FPGA's software attestation is meaningless; the
		// paper's whole point is that stage 2 must not run on it.
		return rep, nil
	}
	s.nonces++
	nonce := s.nonces
	tag, err := s.Module.AttestSoftware(nonce, len(s.program))
	if err != nil {
		return nil, err
	}
	want, err := s.SwVrf.Expected(nonce)
	if err != nil {
		return nil, err
	}
	rep.SoftwareOK = cmac.Equal(tag, want)
	rep.Accepted = rep.FPGATrusted && rep.SoftwareOK
	return rep, nil
}

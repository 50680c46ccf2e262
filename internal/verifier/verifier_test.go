package verifier

import (
	"io"
	"strings"
	"testing"

	"sacha/internal/attestation"
	"sacha/internal/channel"
	"sacha/internal/cmac"
	"sacha/internal/device"
	"sacha/internal/fabric"
	"sacha/internal/protocol"
)

// serveScript runs a scripted prover inline: the handler returns the
// response (nil for none) and whether to hang up instead of answering,
// letting tests model arbitrary prover misbehaviour.
func serveScript(t *testing.T, handler func(m *protocol.Message) (*protocol.Message, bool)) channel.Endpoint {
	t.Helper()
	return channel.NewInline(func(raw []byte) ([][]byte, error) {
		m, err := protocol.Decode(raw)
		if err != nil {
			return nil, err
		}
		resp, stop := handler(m)
		if stop {
			return nil, io.EOF
		}
		if resp == nil {
			return nil, nil
		}
		enc, err := resp.Encode()
		if err != nil {
			return nil, err
		}
		return [][]byte{enc}, nil
	}, channel.SimConfig{})
}

// attest builds the plan for spec and runs one session of it over ep.
func attest(ep channel.Endpoint, spec attestation.Spec, opts attestation.RunOpts) (*Report, error) {
	plan, err := attestation.NewPlan(spec)
	if err != nil {
		return nil, err
	}
	return plan.Run(ep, opts)
}

// zeroSpec is the full-device TinyLX spec of the scripted-prover tests:
// the all-zero golden image, every dynamic frame configured, every frame
// read back in the default (bijective) order.
func zeroSpec() attestation.Spec {
	geo := device.TinyLX()
	return attestation.Spec{Geo: geo, Golden: fabric.NewImage(geo), DynFrames: fabric.DynRegion(geo).Frames()}
}

// attestAgainst runs a full-device TinyLX attestation against the
// scripted prover under the all-zero key.
func attestAgainst(t *testing.T, handler func(m *protocol.Message) (*protocol.Message, bool)) (*Report, error) {
	t.Helper()
	ep := serveScript(t, handler)
	defer ep.Close()
	return attest(ep, zeroSpec(), attestation.RunOpts{})
}

func TestWrongFrameIndexRejected(t *testing.T) {
	_, err := attestAgainst(t, func(m *protocol.Message) (*protocol.Message, bool) {
		switch m.Type {
		case protocol.MsgICAPReadback:
			return &protocol.Message{
				Type:       protocol.MsgFrameData,
				FrameIndex: m.FrameIndex + 1, // wrong frame
				Words:      make([]uint32, device.FrameWords),
			}, false
		case protocol.MsgMACChecksum:
			return &protocol.Message{Type: protocol.MsgMACValue}, false
		}
		return nil, false
	})
	if err == nil {
		t.Fatal("mismatched frame index accepted")
	}
}

func TestErrorResponseSurfaces(t *testing.T) {
	_, err := attestAgainst(t, func(m *protocol.Message) (*protocol.Message, bool) {
		if m.Type == protocol.MsgICAPReadback {
			return protocol.Errorf("device on fire"), false
		}
		return nil, false
	})
	if err == nil {
		t.Fatal("prover Error response not surfaced")
	}
}

func TestChannelDropDetected(t *testing.T) {
	// The prover drops the connection at the first readback; the
	// verifier must fail with an error rather than hang.
	_, err := attestAgainst(t, func(m *protocol.Message) (*protocol.Message, bool) {
		return nil, m.Type == protocol.MsgICAPReadback
	})
	if err == nil {
		t.Fatal("dropped connection not reported")
	}
}

func TestHonestZeroImageAccepted(t *testing.T) {
	// The all-zero golden image against a prover returning all-zero
	// frames and the matching MAC: the one scripted run that must be
	// accepted, pinning the MAC transcript format end to end.
	geo := device.TinyLX()
	rep, err := attestAgainst(t, func(m *protocol.Message) (*protocol.Message, bool) {
		switch m.Type {
		case protocol.MsgICAPReadback:
			return &protocol.Message{Type: protocol.MsgFrameData, FrameIndex: m.FrameIndex, Words: make([]uint32, device.FrameWords)}, false
		case protocol.MsgMACChecksum:
			return &protocol.Message{Type: protocol.MsgMACValue, MAC: macOverZeroFrames(geo.NumFrames())}, false
		}
		return nil, false
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Accepted {
		t.Fatalf("honest zero-image run rejected: MACOK=%v ConfigOK=%v", rep.MACOK, rep.ConfigOK)
	}
	if rep.FramesRead != geo.NumFrames() {
		t.Fatalf("frames read %d, want %d", rep.FramesRead, geo.NumFrames())
	}
}

func macOverZeroFrames(n int) [16]byte {
	m, err := cmac.New(make([]byte, 16))
	if err != nil {
		panic(err)
	}
	buf := make([]byte, device.FrameBytes)
	for i := 0; i < n; i++ {
		m.Update(buf)
	}
	return m.Sum()
}

// rejectedPermutation asserts that the permutation is refused at plan
// construction — before a single message crosses the channel.
func rejectedPermutation(t *testing.T, perm []int, wantSub string) {
	t.Helper()
	sent := make(chan struct{}, 1)
	ep := serveScript(t, func(m *protocol.Message) (*protocol.Message, bool) {
		select {
		case sent <- struct{}{}:
		default:
		}
		return nil, true
	})
	defer ep.Close()
	spec := zeroSpec()
	spec.Permutation = perm
	_, err := attest(ep, spec, attestation.RunOpts{})
	if err == nil {
		t.Fatal("non-bijective permutation accepted")
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("error %q missing %q", err, wantSub)
	}
	select {
	case <-sent:
		t.Fatal("verifier talked to the prover before rejecting the permutation")
	default:
	}
}

func TestPermutationMustCoverAllFrames(t *testing.T) {
	// A short order silently skips frames from the MAC and the masked
	// comparison — a tampered frame outside the order would attest clean.
	rejectedPermutation(t, []int{0, 1, 2}, "covers 3 of")
}

func TestPermutationMustNotRepeatFrames(t *testing.T) {
	geo := device.TinyLX()
	perm := make([]int, geo.NumFrames())
	for i := range perm {
		perm[i] = i
	}
	perm[7] = 3 // frame 3 twice, frame 7 never
	rejectedPermutation(t, perm, "twice")
}

func TestPermutationMustStayInRange(t *testing.T) {
	geo := device.TinyLX()
	perm := make([]int, geo.NumFrames())
	for i := range perm {
		perm[i] = i
	}
	perm[0] = geo.NumFrames() // out of range
	rejectedPermutation(t, perm, "out of range")
}

func TestSignatureModeWithoutKeyRejected(t *testing.T) {
	ep := serveScript(t, func(m *protocol.Message) (*protocol.Message, bool) { return nil, false })
	defer ep.Close()
	spec := zeroSpec()
	spec.SignatureMode = true
	_, err := attest(ep, spec, attestation.RunOpts{}) // no SigVerifier
	if err == nil {
		t.Fatal("signature mode without enrolled key accepted")
	}
}

func TestMACMismatchReported(t *testing.T) {
	// A prover returning a garbage MAC over otherwise perfect zero
	// frames must fail the MAC check but pass nothing else silently.
	rep, err := attestAgainst(t, func(m *protocol.Message) (*protocol.Message, bool) {
		switch m.Type {
		case protocol.MsgICAPReadback:
			return &protocol.Message{Type: protocol.MsgFrameData, FrameIndex: m.FrameIndex, Words: make([]uint32, device.FrameWords)}, false
		case protocol.MsgMACChecksum:
			return &protocol.Message{Type: protocol.MsgMACValue, MAC: [16]byte{0xBA, 0xD0}}, false
		}
		return nil, false
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MACOK {
		t.Fatal("garbage MAC accepted")
	}
	if rep.Accepted {
		t.Fatal("run accepted despite MAC failure")
	}
}

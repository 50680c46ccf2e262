// Package prover implements the SACHa device: the FPGA with its static
// partition logic (Fig. 10) and the external boot flash.
//
// The static partition's behaviour — RX FSM, frame BRAM buffer, ICAP
// program, readback FIFO, AES-CMAC, TX FSM — is modelled natively here,
// while its *configuration* occupies real StatMem frames (so the MAC and
// the golden comparison genuinely cover it). The dynamic partition is pure
// configuration: whatever the verifier configures there is decoded and
// executed by the fabric model.
package prover

import (
	"errors"
	"fmt"
	"io"
	"slices"

	"sacha/internal/bitstream"
	"sacha/internal/channel"
	"sacha/internal/cmac"
	"sacha/internal/compress"
	"sacha/internal/device"
	"sacha/internal/fabric"
	"sacha/internal/fifo"
	"sacha/internal/icap"
	"sacha/internal/obs"
	"sacha/internal/protocol"
	"sacha/internal/signature"
	"sacha/internal/sim"
	"sacha/internal/timing"
)

// KeySource produces the device's MAC key (paper §5.2.1: a key register
// in the proof of concept, a key-generating PUF in the full design).
type KeySource interface {
	// Key returns the 16-byte AES key.
	Key() ([16]byte, error)
	// Describe names the source for reports.
	Describe() string
}

// RegisterKey is the proof-of-concept key register in the static
// partition.
type RegisterKey [16]byte

// Key returns the register value.
func (k RegisterKey) Key() ([16]byte, error) { return k, nil }

// Describe names the source.
func (RegisterKey) Describe() string { return "StatPart key register" }

// Config assembles a Device.
type Config struct {
	Geo *device.Geometry
	// BootMem is the non-volatile boot flash content: the static
	// partition's frames. Its capacity is exactly the static bitstream —
	// deliberately too small to stash the dynamic partial bitstream
	// (paper §5.2.1).
	BootMem *bitstream.Partial
	// Key is the MAC key source.
	Key KeySource
	// Signer, if set, enables the signature-mode extension.
	Signer *signature.Signer
	// RestrictConfigToDyn makes the ICAP controller reject configuration
	// writes into the static partition, the policy of Chaves et al.
	// (paper §4.3: "partial configuration updates can only take place in
	// a predetermined restricted area"). SACHa does not need it — the
	// readback MAC catches everything — but the option allows a direct
	// comparison with that related work.
	RestrictConfigToDyn bool
}

// Device is one SACHa prover.
type Device struct {
	Geo    *device.Geometry
	Fabric *fabric.Fabric
	Port   *icap.Port

	// Clock domains of the static partition (Fig. 10).
	RXClock, ICAPClock, TXClock *sim.Clock
	// Timeline accumulates the device-side virtual time (ICAP and MAC
	// work; wire time is charged by the channel).
	Timeline *sim.Timeline

	bootMem *bitstream.Partial
	keySrc  KeySource
	signer  *signature.Signer
	model   *timing.Model

	mac        *cmac.MAC
	macActive  bool
	transcript *signature.Transcript
	rbFIFO     *fifo.DualClock // readback FIFO crossing ICAP → TX (Fig. 10)

	dynRegion *fabric.Region
	dynSet    map[int]bool // dynamic frame set for RestrictConfigToDyn
	restrict  bool
	appLive   *fabric.Live
	appEpoch  int64
	poweredOn bool

	// Reliable-transport state. The device executes envelope sequence
	// numbers strictly in order — the MAC is order-sensitive, so an
	// out-of-order execution would silently change H_Prv. Requests that
	// arrive ahead of the next expected sequence are buffered in seqPend
	// (bounded by SeqWindow) and executed once the gap fills; the encoded
	// responses of the last SeqCacheEntries executed sequences are kept in
	// seqResp so a duplicated or replayed request is answered from cache
	// instead of re-executing — in particular a duplicated ICAP_readback
	// must not step the MAC twice, or transport flakiness would masquerade
	// as a compromised device.
	seqSeen  bool
	seqLast  uint32
	seqResp  map[uint32][]byte
	seqOrder []uint32
	seqPend  map[uint32][]byte

	// frameScratch is the reused serialisation buffer of handleReadback;
	// MAC and transcript copy what they absorb, so one buffer serves every
	// frame of a session.
	frameScratch []byte

	// rbCmd, rbRaw and rbFrame are readFrameRaw's reused buffers: the
	// readback command stream, the FDRO words (pad frame + frame) and
	// the frame after the FIFO crossing.
	rbCmd   []uint32
	rbRaw   []uint32
	rbFrame []uint32

	// cfgStream and cfgWords are the configuration path's reused
	// buffers: one frame's ICAP write stream, and the decoded words of a
	// compressed batch (at most FrameBufferFrames frames, the static
	// partition's packet buffer).
	cfgStream []uint32
	cfgWords  []uint32

	// caps holds the capability bits negotiated for the current session
	// via Hello. Like the MAC and sequence state it never survives a
	// session or a power cycle: a verifier that does not negotiate gets
	// the paper's baseline protocol.
	caps uint32
}

// New builds a device. It enforces the bounded-BootMem invariant: the
// boot flash must not be able to hold the dynamic partial bitstream.
func New(cfg Config) (*Device, error) {
	if cfg.Geo == nil || cfg.BootMem == nil || cfg.Key == nil {
		return nil, fmt.Errorf("prover: geometry, BootMem and key source are required")
	}
	dyn := fabric.DynRegion(cfg.Geo)
	if cfg.BootMem.SizeBytes() >= len(dyn.Frames())*device.FrameBytes {
		return nil, fmt.Errorf("prover: BootMem of %d bytes could store the partial bitstream — violates the bounded-memory assumption", cfg.BootMem.SizeBytes())
	}
	fab := fabric.New(cfg.Geo)
	icapClk := sim.NewClock("icap", sim.ICAPClockHz)
	d := &Device{
		Geo:        cfg.Geo,
		Fabric:     fab,
		Port:       icap.New(fab, icapClk),
		RXClock:    sim.NewClock("rx", sim.RXClockHz),
		ICAPClock:  icapClk,
		TXClock:    sim.NewClock("tx", sim.TXClockHz),
		Timeline:   sim.NewTimeline(),
		bootMem:    cfg.BootMem,
		keySrc:     cfg.Key,
		signer:     cfg.Signer,
		model:      timing.NewModel(cfg.Geo),
		transcript: signature.NewTranscript(),
		dynRegion:  dyn,
		restrict:   cfg.RestrictConfigToDyn,
		rbRaw:      make([]uint32, icap.ReadbackWords),
		rbFrame:    make([]uint32, device.FrameWords),
	}
	if d.restrict {
		d.dynSet = make(map[int]bool)
		for _, idx := range dyn.Frames() {
			d.dynSet[idx] = true
		}
	}
	rb, err := fifo.New(256) // BRAM-backed, deep enough for one frame burst
	if err != nil {
		return nil, err
	}
	d.rbFIFO = rb
	return d, nil
}

// crossDomains streams words through the readback FIFO into dst,
// alternating ICAP-domain pushes with TX-domain pops as the two clocks
// tick — the clock-domain crossing between the ICAP program and the TX
// FSM. dst must be as long as words.
func (d *Device) crossDomains(dst, words []uint32) {
	i, o := 0, 0
	for o < len(words) {
		if i < len(words) {
			if err := d.rbFIFO.Push(words[i]); err == nil {
				i++
				d.ICAPClock.Tick(1)
			}
		}
		d.rbFIFO.SyncWriteDomain()
		d.rbFIFO.SyncReadDomain()
		if v, err := d.rbFIFO.Pop(); err == nil {
			dst[o] = v
			o++
			d.TXClock.Tick(1)
		}
	}
}

// SetKeySource swaps the device's key source — the device-side effect of
// the verifier shipping a fresh PUF circuit in the dynamic partition
// (paper §5.2.1, second option: key rotation).
func (d *Device) SetKeySource(src KeySource) {
	d.keySrc = src
	d.macActive = false
}

// PowerOn loads the static partition from BootMem into the volatile
// configuration memory, as the configuration controller does at startup.
func (d *Device) PowerOn() error {
	for _, fr := range d.bootMem.Frames {
		if err := d.Fabric.WriteFrame(fr.Index, fr.Words); err != nil {
			return fmt.Errorf("prover: boot: %w", err)
		}
	}
	d.poweredOn = true
	d.macActive = false
	d.caps = 0
	d.resetSeq()
	return nil
}

// resetSeq drops all reliable-transport state: the sequence base, the
// response cache and any buffered out-of-order requests.
func (d *Device) resetSeq() {
	d.seqSeen = false
	d.seqResp = nil
	d.seqOrder = nil
	d.seqPend = nil
}

// appendFrameBytes serialises frame words into dst for MAC/transcript
// absorption (big-endian, matching the verifier) and returns the extended
// slice, letting callers reuse one scratch buffer across frames.
func appendFrameBytes(dst []byte, words []uint32) []byte {
	for _, w := range words {
		dst = append(dst, byte(w>>24), byte(w>>16), byte(w>>8), byte(w))
	}
	return dst
}

// Handle processes one verifier command and returns the response message,
// or nil for commands without a response (ICAP_config).
func (d *Device) Handle(m *protocol.Message) (*protocol.Message, error) {
	if !d.poweredOn {
		return nil, fmt.Errorf("prover: device not powered on")
	}
	switch m.Type {
	case protocol.MsgICAPConfig:
		return nil, d.handleConfig(m)
	case protocol.MsgICAPConfigBatch:
		return nil, d.handleConfigBatch(m)
	case protocol.MsgICAPConfigBatchC:
		return nil, d.handleConfigBatchC(m)
	case protocol.MsgICAPReadback:
		return d.handleReadback(m)
	case protocol.MsgMACChecksum:
		return d.handleChecksum()
	case protocol.MsgSigChecksum:
		return d.handleSigChecksum()
	case protocol.MsgAppStep:
		return d.handleAppStep(m)
	case protocol.MsgHello:
		return d.handleHello(m)
	case protocol.MsgScan:
		return d.handleScan(m)
	default:
		return nil, fmt.Errorf("prover: unexpected message %v", m.Type)
	}
}

// DeviceCaps is the capability set this device implements. Hello
// negotiation intersects it with the verifier's offer.
const DeviceCaps = protocol.CapCompress | protocol.CapScan

func (d *Device) handleHello(m *protocol.Message) (*protocol.Message, error) {
	d.caps = m.Caps & DeviceCaps
	return &protocol.Message{Type: protocol.MsgHelloAck, Caps: d.caps}, nil
}

func (d *Device) handleConfig(m *protocol.Message) error {
	if err := d.writeFrame(m.FrameIndex, m.Words); err != nil {
		return err
	}
	d.Timeline.Add("icap-config", d.model.ActionTime(timing.A2))
	return nil
}

// writeFrame runs one frame's configuration stream through the ICAP,
// built in the device's reused stream buffer.
func (d *Device) writeFrame(idx uint32, words []uint32) error {
	if d.restrict && !d.dynSet[int(idx)] {
		return fmt.Errorf("prover: frame %d outside the dynamic partition (restricted controller)", idx)
	}
	stream, err := icap.AppendConfigFrameStream(d.cfgStream[:0], d.Geo, int(idx), words)
	if err != nil {
		return err
	}
	d.cfgStream = stream
	return d.Port.Write(stream)
}

// FrameBufferFrames is the static partition's packet-buffer capacity in
// frames. The §6.1 trade-off allows batching configuration frames, but
// the buffer must stay far too small for the partial bitstream, or the
// bounded-memory argument collapses.
const FrameBufferFrames = 16

func (d *Device) handleConfigBatch(m *protocol.Message) error {
	if len(m.Batch) > FrameBufferFrames {
		return fmt.Errorf("prover: batch of %d frames exceeds the %d-frame buffer", len(m.Batch), FrameBufferFrames)
	}
	for _, fr := range m.Batch {
		if err := d.writeFrame(fr.Index, fr.Words); err != nil {
			return err
		}
	}
	// The batched ICAP program amortises the per-packet overhead across
	// the batch (one command preamble, k+1 frames through FDRI).
	d.Timeline.Add("icap-config", timing.PrvBatchConfigTime(len(m.Batch)))
	return nil
}

// handleConfigBatchC decodes a compressed configuration batch. The
// decoder bound is count×FrameWords: the frame count declares exactly
// how much buffer the packet may claim, and the count itself is capped
// at the frame-buffer capacity — a hostile compressed stream cannot
// allocate past the static partition's packet buffer however large its
// embedded run counts claim to be.
func (d *Device) handleConfigBatchC(m *protocol.Message) error {
	if d.caps&protocol.CapCompress == 0 {
		return fmt.Errorf("prover: compressed batch without negotiated capability")
	}
	if len(m.Frames) == 0 || len(m.Frames) > FrameBufferFrames {
		return fmt.Errorf("prover: compressed batch of %d frames exceeds the %d-frame buffer", len(m.Frames), FrameBufferFrames)
	}
	want := len(m.Frames) * device.FrameWords
	words, err := compress.AppendDecode(d.cfgWords[:0], m.Comp, want)
	if err != nil {
		return fmt.Errorf("prover: compressed batch: %w", err)
	}
	d.cfgWords = words
	if len(words) != want {
		return fmt.Errorf("prover: compressed batch carries %d words, want %d", len(words), want)
	}
	for i, idx := range m.Frames {
		if err := d.writeFrame(idx, words[i*device.FrameWords:(i+1)*device.FrameWords]); err != nil {
			return err
		}
	}
	d.Timeline.Add("icap-config", timing.PrvBatchConfigTime(len(m.Frames)))
	return nil
}

func (d *Device) handleReadback(m *protocol.Message) (*protocol.Message, error) {
	if !d.macActive {
		key, err := d.keySrc.Key()
		if err != nil {
			return nil, fmt.Errorf("prover: key source: %w", err)
		}
		mac, err := cmac.New(key[:])
		if err != nil {
			return nil, err
		}
		d.mac = mac
		d.macActive = true
		d.transcript.Reset()
		d.Timeline.Add("mac-init", d.model.ActionTime(timing.A5))
	}
	frame, err := d.readFrameRaw(int(m.FrameIndex))
	if err != nil {
		return nil, err
	}

	d.frameScratch = appendFrameBytes(d.frameScratch[:0], frame)
	d.mac.Update(d.frameScratch)
	d.transcript.Absorb(d.frameScratch)
	d.Timeline.Add("mac-update", d.model.ActionTime(timing.A6))

	if d.caps&protocol.CapCompress != 0 {
		return &protocol.Message{
			Type:       protocol.MsgFrameDataC,
			FrameIndex: m.FrameIndex,
			Comp:       compress.Encode(frame),
		}, nil
	}
	return &protocol.Message{
		Type:       protocol.MsgFrameData,
		FrameIndex: m.FrameIndex,
		Words:      slices.Clone(frame),
	}, nil
}

// readFrameRaw runs one ICAP readback — command stream in, pad frame
// dropped, words crossed into the TX clock domain — without touching
// the attestation MAC or transcript. The returned frame is the device's
// own buffer, valid until the next readFrameRaw.
func (d *Device) readFrameRaw(frameIndex int) ([]uint32, error) {
	cmd, err := icap.AppendReadbackCmdStream(d.rbCmd[:0], d.Geo, frameIndex)
	if err != nil {
		return nil, err
	}
	d.rbCmd = cmd
	if err := d.Port.Write(cmd); err != nil {
		return nil, err
	}
	if err := d.Port.ReadInto(d.rbRaw); err != nil {
		return nil, err
	}
	d.crossDomains(d.rbFrame, d.rbRaw[device.FrameWords:]) // drop the pad frame, cross into the TX domain
	d.Timeline.Add("icap-readback", d.model.ActionTime(timing.A4))
	return d.rbFrame, nil
}

// handleScan answers the delta-mode probe: a MAC-free batched readback.
// The frames stream through the same ICAP/FIFO path as ICAP_readback
// but are never absorbed into the MAC or transcript — a scan cannot
// perturb H_Prv, so probing before Phase 1 is always safe. The response
// is compressed; its decompressed size is bounded by the frame count,
// which the protocol caps at MaxScanFrames.
func (d *Device) handleScan(m *protocol.Message) (*protocol.Message, error) {
	if d.caps&protocol.CapScan == 0 {
		return nil, fmt.Errorf("prover: scan without negotiated capability")
	}
	if len(m.Frames) == 0 || len(m.Frames) > protocol.MaxScanFrames {
		return nil, fmt.Errorf("prover: scan of %d frames exceeds the %d-frame limit", len(m.Frames), protocol.MaxScanFrames)
	}
	words := make([]uint32, 0, len(m.Frames)*device.FrameWords)
	for _, idx := range m.Frames {
		frame, err := d.readFrameRaw(int(idx))
		if err != nil {
			return nil, err
		}
		words = append(words, frame...)
	}
	return &protocol.Message{
		Type:   protocol.MsgScanData,
		Frames: m.Frames,
		Comp:   compress.Encode(words),
	}, nil
}

func (d *Device) handleChecksum() (*protocol.Message, error) {
	if !d.macActive {
		return nil, fmt.Errorf("prover: MAC_checksum before any readback")
	}
	tag := d.mac.Sum()
	d.macActive = false
	d.Timeline.Add("mac-finalize", d.model.ActionTime(timing.A7))
	return &protocol.Message{Type: protocol.MsgMACValue, MAC: tag}, nil
}

func (d *Device) handleSigChecksum() (*protocol.Message, error) {
	if d.signer == nil {
		return nil, fmt.Errorf("prover: signature mode not provisioned")
	}
	if !d.macActive {
		return nil, fmt.Errorf("prover: Sig_checksum before any readback")
	}
	sig, err := d.signer.Sign(d.transcript.Digest())
	if err != nil {
		return nil, err
	}
	// The MAC state is consumed alongside the signature.
	d.mac.Sum()
	d.macActive = false
	return &protocol.Message{Type: protocol.MsgSigValue, Sig: sig}, nil
}

// MaxAppSteps bounds one App_step command. A command asking for more
// cycles is rejected rather than wedging the device in a multi-second
// clocking loop — the verifier splits longer runs into several commands.
const MaxAppSteps = 1 << 20

func (d *Device) handleAppStep(m *protocol.Message) (*protocol.Message, error) {
	if m.Steps > MaxAppSteps {
		return nil, fmt.Errorf("prover: App_step of %d cycles exceeds the %d-cycle limit", m.Steps, MaxAppSteps)
	}
	live, err := d.appView()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < m.Steps; i++ {
		if err := live.Step(); err != nil {
			return nil, err
		}
	}
	return &protocol.Message{Type: protocol.MsgAck}, nil
}

// appView returns the decoded dynamic partition, re-decoding after any
// reconfiguration.
func (d *Device) appView() (*fabric.Live, error) {
	if d.appLive == nil || d.appEpoch != d.Fabric.Epoch() {
		live, err := d.Fabric.Live(d.dynRegion)
		if err != nil {
			return nil, err
		}
		d.appLive = live
		d.appEpoch = d.Fabric.Epoch()
	}
	return d.appLive, nil
}

// App returns the live dynamic partition for local experimentation
// (examples drive the configured application through this).
func (d *Device) App() (*fabric.Live, error) { return d.appView() }

// SeqWindow bounds how far ahead of the next expected sequence number the
// device buffers out-of-order requests. It is the device-side half of the
// verifier's pipeline bound (attestation.MaxWindow must not exceed it): a
// windowed verifier never has more than MaxWindow sequences outstanding,
// so every legitimately reordered arrival lands within this window. The
// bound also keeps a hostile peer from growing the buffer without limit.
const SeqWindow = 64

// SeqCacheEntries bounds the response cache. It must hold at least
// SeqWindow entries: with a full pipeline the verifier may still re-send
// any of its outstanding sequences, and each must find its cached
// response — an evicted entry would look like a stale replay and wedge
// the retry loop.
const SeqCacheEntries = 128

// HandleBytes decodes, handles and encodes. Prover-side failures become
// Error messages rather than hard faults, as a deployed device must not
// crash on malformed input. For enveloped requests that fill a sequence
// gap the first of possibly several releasable responses is returned;
// transports that must ship all of them use HandleBytesAll.
func (d *Device) HandleBytes(req []byte) ([]byte, error) {
	resps, err := d.HandleBytesAll(req)
	if err != nil || len(resps) == 0 {
		return nil, err
	}
	return resps[0], nil
}

// HandleBytesAll is HandleBytes for pipelined transports: an enveloped
// request that arrives ahead of the next expected sequence is buffered
// and produces no response yet, while one that fills a gap releases its
// own response plus those of every buffered successor, in sequence order.
func (d *Device) HandleBytesAll(req []byte) ([][]byte, error) {
	m, err := protocol.Decode(req)
	if err != nil {
		enc, err := protocol.Errorf("decode: %v", err).Encode()
		if err != nil {
			return nil, err
		}
		return [][]byte{enc}, nil
	}
	if m.Type == protocol.MsgSeqReq {
		return d.handleSeqReqAll(m)
	}
	resp, err := d.Handle(m)
	if err != nil {
		enc, err := protocol.Errorf("%v", err).Encode()
		if err != nil {
			return nil, err
		}
		return [][]byte{enc}, nil
	}
	if resp == nil {
		return nil, nil
	}
	enc, err := resp.Encode()
	if err != nil {
		return nil, err
	}
	return [][]byte{enc}, nil
}

// handleSeqReqAll executes enveloped commands with at-most-once,
// in-order semantics: each sequence number is executed exactly once and
// strictly in order (the MAC is order-sensitive), duplicates of cached
// sequences replay their cached responses byte-identically, sequences at
// or below the last executed one that have aged out of the cache are
// answered with an Error the verifier discards, and sequences ahead of
// the next expected one are buffered (up to SeqWindow) until the gap
// fills — at which point every consecutive buffered request executes and
// its responses are all released.
func (d *Device) handleSeqReqAll(m *protocol.Message) ([][]byte, error) {
	if d.seqSeen {
		if cached, ok := d.seqResp[m.Seq]; ok {
			mSeqReplays.Inc()
			return [][]byte{cached}, nil
		}
		if m.Seq <= d.seqLast {
			mSeqStale.Inc()
			wire, err := protocol.WrapResp(m.Seq,
				mustEncode(protocol.Errorf("stale sequence %d (current %d)", m.Seq, d.seqLast))).Encode()
			if err != nil {
				return nil, err
			}
			return [][]byte{wire}, nil
		}
		if m.Seq != d.seqLast+1 {
			// A future sequence: buffer it until its predecessors arrive.
			if m.Seq-d.seqLast > SeqWindow {
				mSeqOverflow.Inc()
				wire, err := protocol.WrapResp(m.Seq,
					mustEncode(protocol.Errorf("sequence %d beyond the %d-entry window (current %d)", m.Seq, SeqWindow, d.seqLast))).Encode()
				if err != nil {
					return nil, err
				}
				return [][]byte{wire}, nil
			}
			if d.seqPend == nil {
				d.seqPend = make(map[uint32][]byte)
			}
			if _, buffered := d.seqPend[m.Seq]; !buffered {
				d.seqPend[m.Seq] = append([]byte(nil), m.Inner...)
				mSeqBuffered.Inc()
			}
			return nil, nil
		}
	}
	// m.Seq is executable: the first envelope of the session pins the
	// sequence base, afterwards only seqLast+1 reaches this point.
	var out [][]byte
	wire, err := d.execSeq(m.Seq, m.Inner)
	if err != nil {
		return nil, err
	}
	out = append(out, wire)
	// The gap just filled: drain every now-consecutive buffered request.
	for {
		inner, ok := d.seqPend[d.seqLast+1]
		if !ok {
			break
		}
		seq := d.seqLast + 1
		delete(d.seqPend, seq)
		wire, err := d.execSeq(seq, inner)
		if err != nil {
			return nil, err
		}
		out = append(out, wire)
	}
	return out, nil
}

// execSeq executes one enveloped command, caches the encoded response
// (evicting the oldest entry beyond SeqCacheEntries) and advances the
// sequence cursor.
func (d *Device) execSeq(seq uint32, innerEnc []byte) ([]byte, error) {
	var resp *protocol.Message
	inner, err := protocol.Decode(innerEnc)
	if err != nil {
		resp = protocol.Errorf("decode: %v", err)
	} else if r, err := d.Handle(inner); err != nil {
		resp = protocol.Errorf("%v", err)
	} else if r == nil {
		resp = &protocol.Message{Type: protocol.MsgAck}
	} else {
		resp = r
	}
	enc, err := resp.Encode()
	if err != nil {
		return nil, err
	}
	wire, err := protocol.WrapResp(seq, enc).Encode()
	if err != nil {
		return nil, err
	}
	if d.seqResp == nil {
		d.seqResp = make(map[uint32][]byte, SeqCacheEntries)
	}
	d.seqResp[seq] = wire
	d.seqOrder = append(d.seqOrder, seq)
	if len(d.seqOrder) > SeqCacheEntries {
		delete(d.seqResp, d.seqOrder[0])
		d.seqOrder = d.seqOrder[1:]
		mSeqEvictions.Inc()
	}
	d.seqSeen, d.seqLast = true, seq
	mSeqExecuted.Inc()
	return wire, nil
}

// Reliable-transport metric families of the device side: how often the
// at-most-once machinery actually engages. Replays are duplicate
// requests answered from the response cache (the transport saved a MAC
// double-step), stale and overflow requests are rejected envelopes,
// buffered counts out-of-order arrivals parked until their gap fills.
var (
	mSeqReplays = obs.Default().Counter("sacha_prover_seq_replays_total",
		"Duplicate sequence requests answered from the response cache.")
	mSeqStale = obs.Default().Counter("sacha_prover_seq_stale_total",
		"Sequence requests at or below the executed cursor that aged out of the cache.")
	mSeqBuffered = obs.Default().Counter("sacha_prover_seq_buffered_total",
		"Out-of-order sequence requests buffered until their gap filled.")
	mSeqOverflow = obs.Default().Counter("sacha_prover_seq_overflow_total",
		"Sequence requests rejected for landing beyond the reorder window.")
	mSeqExecuted = obs.Default().Counter("sacha_prover_seq_executed_total",
		"Enveloped commands executed (each sequence number at most once).")
	mSeqEvictions = obs.Default().Counter("sacha_prover_seq_cache_evictions_total",
		"Cached responses evicted by the response-cache bound.")
)

// mustEncode encodes messages whose construction cannot fail (Error
// strings are truncated to the wire limit by Errorf).
func mustEncode(m *protocol.Message) []byte {
	enc, err := m.Encode()
	if err != nil {
		panic(err)
	}
	return enc
}

// sessionOver classifies endpoint errors that mean the peer is gone —
// the clean end of a session, not a device fault.
func sessionOver(err error) bool {
	return err == io.EOF || errors.Is(err, channel.ErrClosed) || errors.Is(err, channel.ErrReset)
}

// Serve answers commands from the endpoint until it closes. A peer that
// disappears (EOF, closed or reset endpoint) ends the session cleanly:
// the device outlives any one verifier connection.
//
// Each session starts with fresh transport state: a half-accumulated MAC
// or a cached sequence envelope left behind by a torn-down connection
// would otherwise poison the next verifier's run (its first readback
// continuing the dead session's checksum). The configuration memory
// itself is untouched — only a power cycle reloads BootMem.
func (d *Device) Serve(ep channel.Endpoint) error {
	d.macActive = false
	d.caps = 0
	d.resetSeq()
	for {
		req, err := ep.Recv()
		if err != nil {
			if sessionOver(err) {
				return nil
			}
			return err
		}
		resps, err := d.HandleBytesAll(req)
		if err != nil {
			return err
		}
		for _, resp := range resps {
			if err := ep.Send(resp); err != nil {
				if sessionOver(err) {
					return nil
				}
				return err
			}
		}
	}
}

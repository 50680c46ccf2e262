// Package timing reproduces the SACHa performance evaluation: the
// per-action costs of Table 3, the protocol totals of Table 4, and the
// JTAG configuration reference of §6.1.
//
// Each action's cost is the sum of derived terms (Gigabit wire time from
// the actual message sizes, ICAP word counts from the actual packet
// streams, AES block counts from the MAC model) and a named calibration
// constant absorbing the residual software/FSM overhead the paper
// measured. The calibration constants are chosen once so that the model
// lands exactly on the published Table 3; Table 4 is then *derived* from
// the action counts, and the measured 28.5 s emerges from the same model
// plus the lab's per-command latency.
package timing

import (
	"fmt"
	"time"

	"sacha/internal/aescore"
	"sacha/internal/device"
	"sacha/internal/ethsim"
	"sacha/internal/fabric"
	"sacha/internal/icap"
	"sacha/internal/protocol"
)

// Action identifies one low-level protocol action (paper Table 3).
type Action int

// The ten actions of the SACHa protocol.
const (
	A1  Action = iota + 1 // Vrf sends ICAP_config
	A2                    // Prv performs ICAP_config
	A3                    // Vrf sends ICAP_readback
	A4                    // Prv performs ICAP_readback
	A5                    // Prv performs MAC init
	A6                    // Prv performs MAC update
	A7                    // Prv performs MAC finalize
	A8                    // Prv performs frame sendback
	A9                    // Vrf sends MAC_checksum
	A10                   // Prv performs MAC sendback
)

// Description returns the paper's wording for the action.
func (a Action) Description() string {
	switch a {
	case A1:
		return "Vrf sends ICAP_config"
	case A2:
		return "Prv performs ICAP_config"
	case A3:
		return "Vrf sends ICAP_readback"
	case A4:
		return "Prv performs ICAP_readback"
	case A5:
		return "Prv performs MAC init"
	case A6:
		return "Prv performs MAC update"
	case A7:
		return "Prv performs MAC finalize"
	case A8:
		return "Prv performs frame sendback"
	case A9:
		return "Vrf sends MAC checksum"
	case A10:
		return "Prv performs MAC sendback"
	}
	return fmt.Sprintf("Action(%d)", int(a))
}

// Clock periods of the three domains (Fig. 10).
const (
	icapNsPerCycle = 10 // 100 MHz
	txNsPerCycle   = 8  // 125 MHz
)

// Calibration constants: residual per-action overheads measured by the
// paper but not attributable to wire or word-transfer time. Values are in
// nanoseconds and documented with their derivation.
const (
	// calVrfConfig is the verifier-side software cost of assembling and
	// dispatching one ICAP_config packet: A1 (8,856 ns) minus the wire
	// time of a 329-byte command (367 bytes on the wire = 2,936 ns).
	calVrfConfig = 8856 - 2936
	// calPrvConfig is the static partition's FSM/clock-domain-crossing
	// overhead per frame write: A2 (1,834 ns) minus the ICAP stream time
	// (173 words — sync, RCRC, WCFG, FAR, FDRI header, frame, pad frame,
	// desync — × 10 ns = 1,730 ns).
	calPrvConfig = 1834 - 1730
	// calVrfReadback is the verifier-side cost of issuing a readback
	// command and filing the previous frame: A3 (13,616 ns) minus the
	// wire time of a 5-byte command (43 bytes = 344 ns).
	calVrfReadback = 13616 - 344
	// calPrvReadback is the capture/pipeline sequencing cost of a
	// single-frame readback: A4 (24,044 ns) minus the ICAP stream time
	// (7 command words + 162 FDRO words = 169 words × 10 ns = 1,690 ns).
	calPrvReadback = 24044 - 1690
	// macUpdateTailCycles is the non-overlapped tail of the pipelined
	// per-frame CMAC update in the TX domain: the AES core absorbs FDRO
	// words while they stream, leaving ~1.5 blocks of work after the
	// last word; 16 cycles × 8 ns = the paper's A6 (128 ns).
	macUpdateTailCycles = 16
	// macFinalizeCycles is the CMAC finalisation (last block + subkey
	// XOR): 17 cycles × 8 ns = A7 (136 ns).
	macFinalizeCycles = 17
)

// PrvBatchConfigTime is the device-side cost of a k-frame batched
// configuration write: one ICAP command preamble, k data frames plus the
// pad frame through FDRI, and the FSM handoff.
func PrvBatchConfigTime(k int) time.Duration {
	return time.Duration(((k+1)*device.FrameWords+11)*icapNsPerCycle+calPrvConfig) * time.Nanosecond
}

// VrfConfigOverhead is the verifier-side software cost per ICAP_config
// beyond wire time (the A1 calibration residual).
func VrfConfigOverhead() time.Duration { return calVrfConfig * time.Nanosecond }

// VrfReadbackOverhead is the verifier-side software cost per
// ICAP_readback beyond wire time (the A3 calibration residual).
func VrfReadbackOverhead() time.Duration { return calVrfReadback * time.Nanosecond }

// LabCommandLatency is the per-command software/switch latency of the
// paper's lab network: (28.5 s measured − 1.443 s theoretical) spread over
// the 54,889 verifier commands ≈ 493 µs each.
const LabCommandLatency = 493 * time.Microsecond

// JTAGBitRate is the configuration bit rate of the JTAG reference
// (§6.1): 9.23 MB of full bitstream in "around 28 s" → 2.64 Mbit/s.
const JTAGBitRate = 2_640_000

// Model computes protocol timing for one device geometry.
type Model struct {
	Geo *device.Geometry
	// LabLatency is the per-command network latency used for the
	// "measured" total; defaults to LabCommandLatency.
	LabLatency time.Duration

	dynFrames int
	// configWords and readbackWords are the ICAP stream lengths of one
	// frame write and one frame readback, measured once from the real
	// streams so ActionTime allocates nothing per frame.
	configWords, readbackWords int
}

// NewModel returns a timing model with the paper's lab latency.
func NewModel(geo *device.Geometry) *Model {
	return &Model{
		Geo:        geo,
		LabLatency: LabCommandLatency,
		dynFrames:  len(fabric.DynRegion(geo).Frames()),

		configWords:   configStreamWords(geo),
		readbackWords: readbackStreamWords(geo),
	}
}

// configStreamWords is the ICAP packet stream length for one frame write.
func configStreamWords(geo *device.Geometry) int {
	s, err := icap.ConfigFrameStream(geo, 0, make([]uint32, device.FrameWords))
	if err != nil {
		panic(err)
	}
	return len(s)
}

// readbackStreamWords is the command words plus FDRO words of a
// single-frame readback.
func readbackStreamWords(geo *device.Geometry) int {
	s, err := icap.ReadbackCmdStream(geo, 0)
	if err != nil {
		panic(err)
	}
	return len(s) + icap.ReadbackWords
}

// ActionTime returns the modelled duration of one action.
func (m *Model) ActionTime(a Action) time.Duration {
	ns := func(n int) time.Duration { return time.Duration(n) * time.Nanosecond }
	switch a {
	case A1:
		return ethsim.WireTime(protocol.SizeICAPConfig) + ns(calVrfConfig)
	case A2:
		return ns(m.configWords*icapNsPerCycle + calPrvConfig)
	case A3:
		return ethsim.WireTime(protocol.SizeICAPReadback) + ns(calVrfReadback)
	case A4:
		return ns(m.readbackWords*icapNsPerCycle + calPrvReadback)
	case A5:
		// AES subkey generation (one block) plus state init, in the ICAP
		// domain: 12 cycles × 10 ns = 120 ns.
		return ns((aescore.CyclesPerBlock + 1) * icapNsPerCycle)
	case A6:
		return ns(macUpdateTailCycles * txNsPerCycle)
	case A7:
		return ns(macFinalizeCycles * txNsPerCycle)
	case A8:
		return ethsim.WireTime(protocol.SizeFrameData)
	case A9:
		return ethsim.WireTime(protocol.SizeMACChecksum)
	case A10:
		return ethsim.WireTime(protocol.SizeMACValue)
	}
	panic(fmt.Sprintf("timing: unknown action %d", a))
}

// Count returns how many times an action executes in one full attestation
// (paper Table 4): configuration actions once per DynMem frame, readback
// actions once per device frame, bookkeeping actions once.
func (m *Model) Count(a Action) int {
	switch a {
	case A1, A2:
		return m.dynFrames
	case A3, A4, A6, A8:
		return m.Geo.NumFrames()
	case A5, A7, A9, A10:
		return 1
	}
	panic(fmt.Sprintf("timing: unknown action %d", a))
}

// Row is one Table 3/4 line.
type Row struct {
	Action Action
	Time   time.Duration
	Count  int
	Total  time.Duration
}

// Actions lists all ten actions in order.
func Actions() []Action {
	return []Action{A1, A2, A3, A4, A5, A6, A7, A8, A9, A10}
}

// Table3 returns the per-action timings.
func (m *Model) Table3() []Row {
	rows := make([]Row, 0, 10)
	for _, a := range Actions() {
		rows = append(rows, Row{Action: a, Time: m.ActionTime(a)})
	}
	return rows
}

// Table4 returns the per-action totals plus the theoretical and measured
// protocol durations.
type Table4 struct {
	Rows        []Row
	Theoretical time.Duration
	Commands    int // verifier-issued commands (A1 + A3 + A9 instances)
	Measured    time.Duration
}

// Table4 computes the full-protocol totals.
func (m *Model) Table4() Table4 {
	var t Table4
	for _, a := range Actions() {
		r := Row{Action: a, Time: m.ActionTime(a), Count: m.Count(a)}
		r.Total = r.Time * time.Duration(r.Count)
		t.Rows = append(t.Rows, r)
		t.Theoretical += r.Total
	}
	t.Commands = m.Count(A1) + m.Count(A3) + m.Count(A9)
	t.Measured = t.Theoretical + time.Duration(t.Commands)*m.LabLatency
	return t
}

// BatchPoint is one point of the §6.1 trade-off between the static
// partition's BRAM buffer size and the number of communication steps:
// sending k frames per ICAP_config packet needs a (k×324)-byte buffer and
// divides the configuration message count by k.
type BatchPoint struct {
	FramesPerPacket int
	BufferBytes     int
	Commands        int
	Theoretical     time.Duration
	Measured        time.Duration
}

// BatchSweep evaluates the trade-off for the given batch sizes. The
// buffer must stay far below the partial bitstream size or the
// bounded-memory argument collapses; callers should check BufferBytes
// against the DynMem size.
func (m *Model) BatchSweep(batchSizes []int) []BatchPoint {
	out := make([]BatchPoint, 0, len(batchSizes))
	for _, k := range batchSizes {
		if k < 1 {
			continue
		}
		cfgCmds := (m.dynFrames + k - 1) / k
		// A k-frame config packet: type byte + index + k frames of
		// payload on the wire, and k+1 frames (incl. pad) through the
		// ICAP.
		wireA1 := ethsim.WireTime(1+4+k*device.FrameBytes) + time.Duration(calVrfConfig)*time.Nanosecond
		icapA2 := time.Duration(((k+1)*device.FrameWords+11)*icapNsPerCycle+calPrvConfig) * time.Nanosecond
		theo := time.Duration(cfgCmds) * (wireA1 + icapA2)
		n := m.Geo.NumFrames()
		theo += time.Duration(n) * (m.ActionTime(A3) + m.ActionTime(A4) + m.ActionTime(A6) + m.ActionTime(A8))
		theo += m.ActionTime(A5) + m.ActionTime(A7) + m.ActionTime(A9) + m.ActionTime(A10)
		cmds := cfgCmds + n + 1
		out = append(out, BatchPoint{
			FramesPerPacket: k,
			BufferBytes:     k * device.FrameBytes,
			Commands:        cmds,
			Theoretical:     theo,
			Measured:        theo + time.Duration(cmds)*m.LabLatency,
		})
	}
	return out
}

// JTAGConfigTime returns the direct-JTAG full-configuration reference the
// paper cites ("around 28 s" for the XC6VLX240T).
func (m *Model) JTAGConfigTime() time.Duration {
	bits := int64(m.Geo.NumFrames()) * device.FrameBits
	return time.Duration(bits * int64(time.Second) / JTAGBitRate)
}

package campaign

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"sacha/internal/attack"
	"sacha/internal/attestation"
)

// EventKind enumerates the campaign event types.
type EventKind int

const (
	// EventSweep is a fleet sweep under the current freshness policy;
	// a scheduler-chosen subset of devices is tampered mid-protocol and
	// must come back Compromised, everyone else Healthy.
	EventSweep EventKind = iota
	// EventStorm is a sweep with seeded transport fault injection on a
	// subset of devices. Faulted-but-untampered devices may come back
	// Healthy or Unreachable — never Compromised; tampered ones may come
	// back Compromised or Unreachable — never Healthy.
	EventStorm
	// EventAttack replays one registered adversary against one device;
	// the verifier must reject the run with a verdict (MAC or bitstream
	// mismatch), not transport noise.
	EventAttack
	// EventSEU injects seeded single-event upsets into one device and
	// runs a scrub scan/repair cycle: every unmasked injected flip must
	// be found, and a post-repair scan must come back clean.
	EventSEU
	// EventKill is a sweep cancelled mid-flight after KillAfter devices
	// started. Every member must land Healthy or Unreachable — a
	// cancellation must never manufacture a Compromised or Failed
	// verdict.
	EventKill
	// EventCrash closes the campaign's durable store — cleanly or by
	// abandoning the handles (the SIGKILL shape) — and reopens it,
	// rebuilding the registry from the persisted enrollments. Every
	// device's key generation and class must reconcile exactly across the
	// restart, and every nonce spent before the crash must still be
	// journaled after.
	EventCrash
)

func (k EventKind) String() string {
	switch k {
	case EventSweep:
		return "sweep"
	case EventStorm:
		return "storm"
	case EventAttack:
		return "attack"
	case EventSEU:
		return "seu"
	case EventKill:
		return "kill"
	case EventCrash:
		return "crash"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// DeviceFault is one device's transport affliction in a storm event.
type DeviceFault struct {
	Device uint64
	// Seed drives the device's fault lottery.
	Seed int64
	// Heavy doubles the fault rates.
	Heavy bool
	// ResetAt, when ≥ 0, scripts a connection reset at that receive
	// index — the deterministic Unreachable generator.
	ResetAt int
}

// Event is one scheduled campaign step. All fields are drawn from the
// scheduler's seeded stream, so the sequence is a pure function of the
// scenario seed.
type Event struct {
	Index int
	Kind  EventKind

	// Sweep-family fields (Sweep, Storm, Kill).
	Freshness attestation.FreshnessPolicy
	// Nonce pins the sweep nonce under PerSweep (per-device policies
	// draw their own).
	Nonce uint64
	// Window is the per-run readback pipeline depth.
	Window int
	// RetrySeed drives the reliable transport's backoff jitter.
	RetrySeed int64
	// Tampered lists devices tamper-hooked mid-protocol (ascending).
	Tampered []uint64
	// Faults lists the storm's per-device fault plans (ascending by
	// device).
	Faults []DeviceFault
	// KillAfter is how many devices may start before the sweep context
	// is cancelled (Kill only).
	KillAfter int

	// Attack / SEU fields.
	Device    uint64
	Adversary string
	Flips     int
	SEUSeed   int64

	// CleanClose selects the crash shape (Crash only): true closes the
	// store before reopening (a graceful restart), false abandons the
	// handles (the SIGKILL shape). Both must replay identically.
	CleanClose bool
}

// Desc renders the canonical one-line descriptor recorded in the
// campaign event log — the determinism witness: two runs of one seed
// must produce byte-identical descriptor sequences.
func (e Event) Desc() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d %s", e.Index, e.Kind)
	switch e.Kind {
	case EventSweep, EventStorm, EventKill:
		fmt.Fprintf(&b, " policy=%s win=%d", e.Freshness, e.Window)
		if e.Freshness == attestation.PerSweep {
			fmt.Fprintf(&b, " nonce=%#x", e.Nonce)
		}
		if len(e.Tampered) > 0 {
			fmt.Fprintf(&b, " tampered=%v", e.Tampered)
		}
		for _, f := range e.Faults {
			fmt.Fprintf(&b, " fault=%d:%d:heavy=%t:reset=%d", f.Device, f.Seed, f.Heavy, f.ResetAt)
		}
		if e.Kind == EventKill {
			fmt.Fprintf(&b, " kill-after=%d", e.KillAfter)
		}
	case EventAttack:
		fmt.Fprintf(&b, " device=%d adversary=%s", e.Device, e.Adversary)
	case EventSEU:
		fmt.Fprintf(&b, " device=%d flips=%d seed=%d", e.Device, e.Flips, e.SEUSeed)
	case EventCrash:
		fmt.Fprintf(&b, " clean=%t", e.CleanClose)
	}
	return b.String()
}

// policyChurnPeriod is how many sweep-family events run under one
// freshness policy before the scheduler advances PerSweep → PerDevice →
// RotateKey → PerSweep — the mid-campaign churn the issue demands.
const policyChurnPeriod = 2

// Scheduler derives the deterministic event stream of one scenario.
// Next must be called with consecutive indices starting at 0; the
// stream is a pure function of the scenario seed.
type Scheduler struct {
	sc           Scenario
	rng          *rand.Rand
	adversaries  []attack.Named
	sweepEvents  int // sweep-family events drawn so far (drives churn)
	attackEvents int // attack events drawn so far (drives rotation)
}

// NewScheduler returns the event stream of sc (normalized first).
func NewScheduler(sc Scenario) *Scheduler {
	sc = sc.Normalized()
	return &Scheduler{
		sc:          sc,
		rng:         rand.New(rand.NewSource(sc.Seed)),
		adversaries: attack.Registry(),
	}
}

// Next draws the i-th event.
func (s *Scheduler) Next(i int) Event {
	ev := Event{Index: i, Kind: s.drawKind()}
	switch ev.Kind {
	case EventSweep, EventStorm, EventKill:
		ev.Freshness = s.churnPolicy()
		ev.Nonce = s.rng.Uint64()
		ev.RetrySeed = s.rng.Int63()
		if ev.Kind == EventSweep {
			// Clean sweeps also exercise the pipelined readback path;
			// storms and kills stay lockstep so fault recovery and
			// cancellation hit the simplest, fully deterministic engine.
			ev.Window = []int{1, 8, 16}[s.rng.Intn(3)]
		} else {
			ev.Window = 1
		}
		switch ev.Kind {
		case EventSweep:
			ev.Tampered = s.drawSubset(0.15)
		case EventStorm:
			ev.Tampered = s.drawSubset(0.10)
			ev.Faults = s.drawFaults()
		case EventKill:
			// No tampers or faults: every verdict of a killed sweep must
			// be explainable by the cancellation alone.
			ev.KillAfter = s.rng.Intn(s.sc.Fleet)
		}
	case EventAttack:
		ev.Device = s.drawDevice()
		// Rotate through the registry instead of sampling it: every
		// adversary is exercised once per len(Registry()) attack events,
		// so even a short campaign covers the full threat catalogue
		// (uniform draws would need ~3× as many events — coupon
		// collector — to touch all eight).
		ev.Adversary = s.adversaries[s.attackEvents%len(s.adversaries)].Key
		s.attackEvents++
	case EventSEU:
		ev.Device = s.drawDevice()
		ev.Flips = 1 + s.rng.Intn(8)
		ev.SEUSeed = s.rng.Int63()
	case EventCrash:
		ev.CleanClose = s.rng.Intn(2) == 0
	}
	return ev
}

// drawKind picks the event kind by the scenario's weighted lottery.
func (s *Scheduler) drawKind() EventKind {
	w := s.sc.Weights
	draw := s.rng.Intn(w.sum())
	switch {
	case draw < w.Sweep:
		return EventSweep
	case draw < w.Sweep+w.Storm:
		return EventStorm
	case draw < w.Sweep+w.Storm+w.Attack:
		return EventAttack
	case draw < w.Sweep+w.Storm+w.Attack+w.SEU:
		return EventSEU
	case draw < w.Sweep+w.Storm+w.Attack+w.SEU+w.Kill:
		return EventKill
	}
	return EventCrash
}

// churnPolicy advances the freshness policy every policyChurnPeriod
// sweep-family events.
func (s *Scheduler) churnPolicy() attestation.FreshnessPolicy {
	policies := []attestation.FreshnessPolicy{
		attestation.PerSweep, attestation.PerDevice, attestation.RotateKey,
	}
	p := policies[(s.sweepEvents/policyChurnPeriod)%len(policies)]
	s.sweepEvents++
	return p
}

// drawDevice picks one fleet member (IDs are 1-based, registry.New's
// convention).
func (s *Scheduler) drawDevice() uint64 {
	return uint64(1 + s.rng.Intn(s.sc.Fleet))
}

// drawSubset selects each device independently with probability p,
// ascending. One rng draw per device keeps the stream aligned
// regardless of the outcome.
func (s *Scheduler) drawSubset(p float64) []uint64 {
	var out []uint64
	for id := uint64(1); id <= uint64(s.sc.Fleet); id++ {
		if s.rng.Float64() < p {
			out = append(out, id)
		}
	}
	return out
}

// drawFaults storms roughly a third of the fleet: per afflicted device
// a fault seed, a severity tier, and (for a quarter of them) a scripted
// reset that deterministically severs the session.
func (s *Scheduler) drawFaults() []DeviceFault {
	var out []DeviceFault
	for id := uint64(1); id <= uint64(s.sc.Fleet); id++ {
		if s.rng.Float64() >= 1.0/3 {
			continue
		}
		f := DeviceFault{
			Device:  id,
			Seed:    s.rng.Int63(),
			Heavy:   s.rng.Float64() < 0.5,
			ResetAt: -1,
		}
		if s.rng.Float64() < 0.25 {
			// Early enough that even the smallest geometry's protocol has
			// that many messages in flight.
			f.ResetAt = s.rng.Intn(64)
		}
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Device < out[j].Device })
	return out
}

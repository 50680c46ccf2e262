// Package span is the causal tracing layer of the fleet stack: a
// dependency-free distributed-tracing shape (trace → span tree with
// tags and events) sized for one process. Where internal/obs aggregates
// (counters, histograms), span keeps causality: one fleetd sweep is a
// trace whose root span fans out into per-device session spans (with
// the dispatcher's shard route and work-stealing attribution as tags),
// each session into the four protocol phase spans of attestation.Run,
// with the session's protocol record — one event per A-action step and
// one per Fig. 8 protocol line — hanging off as span events.
//
// Identifiers are deterministic: the trace ID derives from the sweep's
// nonce base (pinned by fleet.SweepConfig.NonceSeed) and session span
// IDs from (trace, device) via the same splitmix64 mix the per-device
// nonce derivation uses — so a replayed campaign or soak run produces
// bit-identical trace trees, and the Perfetto export is golden-testable.
//
// Every mutating method is a no-op on a nil *Span or nil *Collector, so
// instrumented hot paths pay a nil check and nothing else when tracing
// is off — the zero-allocation contract TestNilSpanZeroAlloc pins.
package span

import (
	"fmt"
	"sync"
	"time"
)

// TraceID identifies one sweep-level trace.
type TraceID uint64

// SpanID identifies one span within a trace.
type SpanID uint64

// String renders the ID as fixed-width hex — the spelling the JSON
// exports and the ?trace= filter use.
func (t TraceID) String() string { return fmt.Sprintf("%016x", uint64(t)) }

// String renders the ID as fixed-width hex.
func (s SpanID) String() string { return fmt.Sprintf("%016x", uint64(s)) }

// saltTrace domain-separates the trace-ID derivation from the nonce
// derivation sharing the same base: NewTraceID(base) must never equal
// any DeviceNonce(base, id).
const saltTrace = 0xA5EB5A17C0FFEE01

// mix is the splitmix64 finalizer — the same mix fleet.DeviceNonce
// uses, duplicated here because the dependency points the other way
// (fleet imports span).
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// NewTraceID derives a sweep's trace ID from its nonce base. Under a
// pinned fleet.SweepConfig.NonceSeed the base — and therefore the whole
// trace tree — is reproducible across runs.
func NewTraceID(nonceBase uint64) TraceID {
	return TraceID(mix(nonceBase ^ saltTrace))
}

// SessionSpanID derives the span ID of device's session under a trace —
// a pure function of (trace, device), independent of which shard,
// worker or wall-clock moment runs the session.
func SessionSpanID(t TraceID, device uint64) SpanID {
	return SpanID(mix(uint64(t) + device*0x9E3779B97F4A7C15))
}

// childSpanID derives the n-th child of a parent span.
func childSpanID(parent SpanID, n int) SpanID {
	return SpanID(mix(uint64(parent) + uint64(n)*0x9E3779B97F4A7C15 + 1))
}

// Event is one point-in-time annotation on a span: a protocol step
// (kind = the Table 3 action, with its modelled duration), a protocol
// milestone (a Fig. 8 line) or a transport summary.
type Event struct {
	// Kind classifies the event.
	Kind string
	// Frame is the frame index the event concerns, -1 when not
	// applicable.
	Frame int
	// VirtualNS is the event's modelled (virtual) duration — the
	// deterministic half of its timing.
	VirtualNS int64
	// OffsetNS is the wall-clock offset from the span's start when the
	// event was recorded (excluded from canonical exports).
	OffsetNS int64
	// Note is free-form detail.
	Note string
}

// Tag is one key/value annotation.
type Tag struct{ Key, Value string }

// KindStat aggregates every event of one kind a span recorded,
// including the ones past the retention cap.
type KindStat struct {
	Count int
	// Total and Max are over the events' virtual durations.
	Total, Max time.Duration
}

// Span is one node of a trace tree. A span is mutated by the goroutine
// that owns the unit of work it describes plus any Snapshot reader, so
// its fields are guarded by a small mutex; uncontended that costs tens
// of nanoseconds per operation, far inside the ≤3% tracing budget of
// the windowed readback benchmark.
//
// All methods are no-ops on a nil receiver.
type Span struct {
	col    *Collector
	trace  TraceID
	id     SpanID
	parent SpanID
	name   string
	device uint64
	hasDev bool
	seq    int // creation index among the parent's children
	start  time.Time

	mu       sync.Mutex
	childSeq int
	tags     []Tag
	events   []Event
	kinds    map[string]*KindStat
	durNS    int64
	done     bool
}

// kindEventCap bounds the events of one kind a span retains; beyond it
// only the kind's KindStat keeps growing. A session records a fixed set
// of kinds — a few per-frame step streams plus one-off milestones — so
// the cap keeps whole TinyLX sessions, the head of every step stream of
// a large one and every milestone, in recording order.
const kindEventCap = 1024

// Trace returns the span's trace ID (0 on nil).
func (s *Span) Trace() TraceID {
	if s == nil {
		return 0
	}
	return s.trace
}

// ID returns the span's ID (0 on nil).
func (s *Span) ID() SpanID {
	if s == nil {
		return 0
	}
	return s.id
}

// SetTag sets a key/value annotation, overwriting an existing key.
func (s *Span) SetTag(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.tags {
		if s.tags[i].Key == key {
			s.tags[i].Value = value
			return
		}
	}
	s.tags = append(s.tags, Tag{key, value})
}

// Event records a point-in-time annotation with its virtual duration.
func (s *Span) Event(kind string, frame int, virtual time.Duration, note string) {
	if s == nil {
		return
	}
	off := time.Since(s.start).Nanoseconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	k := s.kinds[kind]
	if k == nil {
		if s.kinds == nil {
			s.kinds = make(map[string]*KindStat)
		}
		k = &KindStat{}
		s.kinds[kind] = k
	}
	k.Count++
	k.Total += virtual
	k.Max = max(k.Max, virtual)
	if k.Count > kindEventCap {
		return
	}
	s.events = append(s.events, Event{
		Kind: kind, Frame: frame, VirtualNS: virtual.Nanoseconds(),
		OffsetNS: off, Note: note,
	})
}

// Events returns a copy of the retained events, in recording order.
func (s *Span) Events() []Event {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}

// Kinds returns the per-kind aggregates of every event recorded on the
// span, retained or not.
func (s *Span) Kinds() map[string]KindStat {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]KindStat, len(s.kinds))
	for kind, k := range s.kinds {
		out[kind] = *k
	}
	return out
}

// Child starts a child span. Its ID derives from the parent's ID and
// the child's creation index, so a single-goroutine owner (a session
// creating its phase spans in protocol order) produces deterministic
// child IDs. The child inherits the parent's device attribution.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	seq := s.childSeq
	s.childSeq++
	s.mu.Unlock()
	c := &Span{
		col: s.col, trace: s.trace, id: childSpanID(s.id, seq), parent: s.id,
		name: name, device: s.device, hasDev: s.hasDev, seq: seq, start: time.Now(),
	}
	s.col.addActive(c)
	return c
}

// DeviceChild starts a child span attributed to one device, with the
// deterministic (trace, device)-derived session span ID — the shape the
// dispatcher uses for per-device session spans.
func (s *Span) DeviceChild(name string, device uint64) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	seq := s.childSeq
	s.childSeq++
	s.mu.Unlock()
	c := &Span{
		col: s.col, trace: s.trace, id: SessionSpanID(s.trace, device), parent: s.id,
		name: name, device: device, hasDev: true, seq: seq, start: time.Now(),
	}
	s.col.addActive(c)
	return c
}

// ChildSpanAt records an already-completed child covering [start, end)
// — how attestation.Run turns its contiguous phase checkpoints into
// phase spans after the fact, without timing anything twice.
func (s *Span) ChildSpanAt(name string, start, end time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	seq := s.childSeq
	s.childSeq++
	s.mu.Unlock()
	c := &Span{
		col: s.col, trace: s.trace, id: childSpanID(s.id, seq), parent: s.id,
		name: name, device: s.device, hasDev: s.hasDev, seq: seq, start: start,
		durNS: end.Sub(start).Nanoseconds(), done: true,
	}
	s.col.retire(c)
}

// End finishes the span and retires it into the collector's ring.
// Ending twice is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	s.durNS = time.Since(s.start).Nanoseconds()
	s.mu.Unlock()
	s.col.retireActive(s)
}

// Collector retains finished spans in a bounded ring plus the set of
// still-open spans, so a snapshot mid-sweep shows the open sweep root
// above its finished sessions. The zero concurrency cost is one short
// mutex hold per span start/retire — spans, not events, pay the lock.
type Collector struct {
	mu      sync.Mutex
	cap     int
	ring    []*Span // finished spans, oldest first once full
	next    int
	full    bool
	active  map[SpanID]*Span
	dropped uint64
}

// DefaultCap is the finished-span retention bound used when
// NewCollector is given a non-positive capacity.
const DefaultCap = 8192

// NewCollector returns a collector retaining at most capSpans finished
// spans (<=0 = DefaultCap).
func NewCollector(capSpans int) *Collector {
	if capSpans <= 0 {
		capSpans = DefaultCap
	}
	return &Collector{
		cap:    capSpans,
		ring:   make([]*Span, capSpans),
		active: make(map[SpanID]*Span),
	}
}

// StartTrace opens a trace's root span. Returns nil on a nil collector,
// so callers thread one pointer and never branch again.
func (c *Collector) StartTrace(t TraceID, name string) *Span {
	if c == nil {
		return nil
	}
	s := &Span{col: c, trace: t, id: childSpanID(SpanID(t), 0), name: name, start: time.Now()}
	c.addActive(s)
	return s
}

// Dropped returns how many finished spans the ring has evicted.
func (c *Collector) Dropped() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

func (c *Collector) addActive(s *Span) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.active[s.id] = s
	c.mu.Unlock()
}

func (c *Collector) retireActive(s *Span) {
	if c == nil {
		return
	}
	c.mu.Lock()
	delete(c.active, s.id)
	c.push(s)
	c.mu.Unlock()
}

// retire records a span that was never active (ChildSpanAt).
func (c *Collector) retire(s *Span) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.push(s)
	c.mu.Unlock()
}

// push appends into the ring; the caller holds c.mu.
func (c *Collector) push(s *Span) {
	if c.full {
		c.dropped++
	}
	c.ring[c.next] = s
	c.next++
	if c.next == c.cap {
		c.next = 0
		c.full = true
	}
}

// all returns every retained span (finished ring oldest-first, then
// open spans) — the raw material of Snapshot.
func (c *Collector) all() []*Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Span, 0, c.cap+len(c.active))
	if c.full {
		out = append(out, c.ring[c.next:]...)
		out = append(out, c.ring[:c.next]...)
	} else {
		out = append(out, c.ring[:c.next]...)
	}
	for _, s := range c.active {
		out = append(out, s)
	}
	return out
}

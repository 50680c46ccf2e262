package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sacha/internal/channel"
	"sacha/internal/fleet"
	"sacha/internal/protocol"
)

// Span is one benchmark-side span: a call into a layer, recorded from
// the benchmark's own files. Spans of one sweep share Sweep (-1 for the
// isolated layer timings and the accounting sessions); times are Unix nanoseconds, the clock the
// daemon's phase spans are exported in.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Sweep  int    `json:"sweep"`
	Name   string `json:"name"`
	Device uint64 `json:"device,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory span buffer; spans past it are counted
// as dropped, never block the traced path.
const maxSpans = 400_000

// Recorder keeps spans in memory until the run writes them out.
type Recorder struct {
	next    atomic.Uint64
	mu      sync.Mutex
	spans   []Span
	dropped int
}

func (r *Recorder) id() uint64 { return r.next.Add(1) }

func (r *Recorder) add(s Span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpans {
		r.dropped++
		return
	}
	r.spans = append(r.spans, s)
}

// sessionStat accumulates one verifier session's channel traffic.
type sessionStat struct {
	Sweep            int
	Device           uint64
	MsgsSent         int64
	BytesSent        int64
	BytesRecv        int64
	RecvWait         time.Duration
	FramesConfigured int
	SpanID           uint64
	Start, End       int64
}

// sweepTrace is what the tracer collected during one sweep.
type sweepTrace struct {
	Sweep    int
	PostID   uint64
	OptsAt   map[uint64]int64 // device → Opts callback time (Unix ns)
	Sessions []*sessionStat
	Spends   []time.Duration
	SpendErr int
}

// Tracer arms the traced run's hooks: the Opts callback, the wrapped
// verifier channel and the timed nonce spender. Send/Recv spans are
// recorded for the detail devices of the detail sweep only (one device
// per class), which keeps the span file small; counters cover every
// session.
type Tracer struct {
	rec *Recorder

	detailSweep   int
	detailDevices map[uint64]bool

	mu  sync.Mutex
	cur *sweepTrace
}

func newTracer(rec *Recorder, detailSweep int, detailDevices map[uint64]bool) *Tracer {
	return &Tracer{rec: rec, detailSweep: detailSweep, detailDevices: detailDevices}
}

// beginSweep opens the sweep's root span (the POST) and resets the
// per-sweep collections.
func (t *Tracer) beginSweep(i int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cur = &sweepTrace{Sweep: i, PostID: t.rec.id(), OptsAt: map[uint64]int64{}}
}

// endSweep closes the POST span over [start, end] and hands back the
// sweep's collections.
func (t *Tracer) endSweep(start, end time.Time) *sweepTrace {
	t.mu.Lock()
	cur := t.cur
	t.cur = nil
	t.mu.Unlock()
	t.rec.add(Span{ID: cur.PostID, Sweep: cur.Sweep, Name: "fleetd.post",
		Start: start.UnixNano(), End: end.UnixNano()})
	return cur
}

func (t *Tracer) current() *sweepTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cur
}

// optsCalled records the Opts callback of a device: fired by the
// dispatcher worker just before the device's session starts.
func (t *Tracer) optsCalled(id uint64, start time.Time) {
	end := time.Now()
	t.mu.Lock()
	cur := t.cur
	if cur != nil {
		cur.OptsAt[id] = start.UnixNano()
	}
	t.mu.Unlock()
	if cur == nil {
		return
	}
	t.rec.add(Span{ID: t.rec.id(), Parent: cur.PostID, Sweep: cur.Sweep, Name: "dispatch.opts",
		Device: id, Start: start.UnixNano(), End: end.UnixNano()})
}

// spent records one timed anti-replay Spend.
func (t *Tracer) spent(start, end time.Time, err error) {
	t.mu.Lock()
	cur := t.cur
	if cur != nil {
		cur.Spends = append(cur.Spends, end.Sub(start))
		if err != nil {
			cur.SpendErr++
		}
	}
	t.mu.Unlock()
	if cur == nil {
		return
	}
	t.rec.add(Span{ID: t.rec.id(), Parent: cur.PostID, Sweep: cur.Sweep, Name: "store.spend",
		Start: start.UnixNano(), End: end.UnixNano()})
}

// timedSpender times every Spend of the store's nonce journal.
type timedSpender struct {
	inner fleet.NonceSpender
	tr    *Tracer
}

func (s *timedSpender) Spend(nonce uint64) error {
	t0 := time.Now()
	err := s.inner.Spend(nonce)
	s.tr.spent(t0, time.Now(), err)
	return err
}

// wrapChannel wraps a session's verifier endpoint; the session span
// runs from here to Close.
func (t *Tracer) wrapChannel(id uint64, ep channel.Endpoint) channel.Endpoint {
	cur := t.current()
	sweep, parent := -1, uint64(0) // outside a sweep: the accounting sessions
	if cur != nil {
		sweep, parent = cur.Sweep, cur.PostID
	}
	st := &sessionStat{Sweep: sweep, Device: id, SpanID: t.rec.id(), Start: time.Now().UnixNano()}
	return &tracedEndpoint{inner: ep, tr: t, cur: cur, parent: parent, st: st,
		detail: sweep == t.detailSweep && t.detailDevices[id]}
}

// tracedEndpoint counts and times the verifier's Send/Recv calls.
type tracedEndpoint struct {
	inner  channel.Endpoint
	tr     *Tracer
	cur    *sweepTrace
	parent uint64
	st     *sessionStat
	detail bool

	msgsSent, msgsRecv, bytesSent, bytesRecv, recvWait, frames atomic.Int64
	once                                                       sync.Once
}

func (e *tracedEndpoint) Send(msg []byte) error {
	t0 := time.Now()
	err := e.inner.Send(msg)
	t1 := time.Now()
	e.msgsSent.Add(1)
	e.bytesSent.Add(int64(len(msg)))
	e.frames.Add(int64(configFrames(msg)))
	if e.detail {
		e.tr.rec.add(Span{ID: e.tr.rec.id(), Parent: e.st.SpanID, Sweep: e.st.Sweep, Name: "channel.send",
			Device: e.st.Device, Start: t0.UnixNano(), End: t1.UnixNano()})
	}
	return err
}

func (e *tracedEndpoint) Recv() ([]byte, error) {
	t0 := time.Now()
	msg, err := e.inner.Recv()
	t1 := time.Now()
	e.recvWait.Add(int64(t1.Sub(t0)))
	if err == nil {
		e.msgsRecv.Add(1)
		e.bytesRecv.Add(int64(len(msg)))
	}
	if e.detail {
		e.tr.rec.add(Span{ID: e.tr.rec.id(), Parent: e.st.SpanID, Sweep: e.st.Sweep, Name: "channel.recv",
			Device: e.st.Device, Start: t0.UnixNano(), End: t1.UnixNano()})
	}
	return msg, err
}

func (e *tracedEndpoint) Close() error {
	err := e.inner.Close()
	e.once.Do(func() {
		st := e.st
		st.End = time.Now().UnixNano()
		st.MsgsSent = e.msgsSent.Load()
		st.BytesSent, st.BytesRecv = e.bytesSent.Load(), e.bytesRecv.Load()
		st.RecvWait = time.Duration(e.recvWait.Load())
		st.FramesConfigured = int(e.frames.Load())
		e.tr.rec.add(Span{ID: st.SpanID, Parent: e.parent, Sweep: st.Sweep, Name: "channel.session",
			Device: st.Device, Start: st.Start, End: st.End})
		if e.cur != nil {
			e.tr.mu.Lock()
			e.cur.Sessions = append(e.cur.Sessions, st)
			e.tr.mu.Unlock()
		}
	})
	return err
}

// configFrames counts the frames a verifier message configures: one
// per ICAP_config, the batch size of batched (and compressed batched)
// configuration, looking through reliable-transport envelopes.
func configFrames(msg []byte) int {
	if len(msg) == 0 {
		return 0
	}
	switch protocol.MsgType(msg[0]) {
	case protocol.MsgICAPConfig:
		return 1
	case protocol.MsgICAPConfigBatch, protocol.MsgICAPConfigBatchC, protocol.MsgSeqReq:
		m, err := protocol.Decode(msg)
		if err != nil {
			return 0
		}
		switch m.Type {
		case protocol.MsgICAPConfigBatch:
			return len(m.Batch)
		case protocol.MsgICAPConfigBatchC:
			return len(m.Frames)
		default:
			return configFrames(m.Inner)
		}
	}
	return 0
}

// traceNode is the part of a /debug/trace span tree the benchmark reads.
type traceNode struct {
	Name        string      `json:"name"`
	Device      uint64      `json:"device"`
	StartUnixNS int64       `json:"start_unix_ns"`
	DurationNS  int64       `json:"duration_ns"`
	Children    []traceNode `json:"children"`
}

// phaseTimes maps device → phase name → duration for one sweep's trace.
type phaseTimes map[uint64]map[string]traceNode

func collectPhases(nodes []traceNode, out phaseTimes) {
	for _, n := range nodes {
		if n.Device != 0 {
			for _, c := range n.Children {
				if strings.HasPrefix(c.Name, "phase:") {
					if out[n.Device] == nil {
						out[n.Device] = map[string]traceNode{}
					}
					out[n.Device][c.Name] = c
				}
			}
		}
		collectPhases(n.Children, out)
	}
}

// importPhases adds the daemon's phase spans of a sweep to the span
// file as children of the matching channel.session spans, and
// re-parents that session's recorded Send/Recv spans under the phase
// whose interval holds their start.
func (t *Tracer) importPhases(sw *sweepTrace, phases phaseTimes) {
	for _, st := range sw.Sessions {
		ph := phases[st.Device]
		if len(ph) == 0 {
			continue
		}
		type iv struct {
			id         uint64
			start, end int64
		}
		var ivs []iv
		for name, n := range ph {
			s := Span{ID: t.rec.id(), Parent: st.SpanID, Sweep: sw.Sweep, Name: name, Device: st.Device,
				Start: n.StartUnixNS, End: n.StartUnixNS + n.DurationNS}
			t.rec.add(s)
			ivs = append(ivs, iv{s.ID, s.Start, s.End})
		}
		if sw.Sweep != t.detailSweep || !t.detailDevices[st.Device] {
			continue
		}
		t.rec.mu.Lock()
		for i := range t.rec.spans {
			s := &t.rec.spans[i]
			if s.Parent != st.SpanID || (s.Name != "channel.send" && s.Name != "channel.recv") {
				continue
			}
			for _, v := range ivs {
				if s.Start >= v.start && s.Start < v.end {
					s.Parent = v.id
					break
				}
			}
		}
		t.rec.mu.Unlock()
	}
}

// SelfTime is one span name's aggregate: how many spans, their total
// duration, and their self time — duration minus the part of it the
// span's children cover.
type SelfTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes computes per-name self times over a span set.
func selfTimes(spans []Span) []SelfTime {
	kids := map[uint64][]int{}
	for i, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	agg := map[string]*SelfTime{}
	for _, s := range spans {
		dur := s.End - s.Start
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, k := range kids[s.ID] {
			c := spans[k]
			a, b := max(c.Start, s.Start), min(c.End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		var covered, reach int64
		reach = s.Start
		for _, v := range ivs {
			if v.a > reach {
				reach = v.a
			}
			if v.b > reach {
				covered += v.b - reach
				reach = v.b
			}
		}
		a := agg[s.Name]
		if a == nil {
			a = &SelfTime{Name: s.Name}
			agg[s.Name] = a
		}
		a.Count++
		a.TotalMS += float64(dur) / 1e6
		a.SelfMS += float64(dur-covered) / 1e6
	}
	out := make([]SelfTime, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// writeSpans writes the span file: one JSON span per line, then a final
// line holding the per-name self times.
func (r *Recorder) writeSpans(path string) ([]SelfTime, error) {
	r.mu.Lock()
	spans := append([]Span(nil), r.spans...)
	dropped := r.dropped
	r.mu.Unlock()
	self := selfTimes(spans)
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return nil, err
		}
	}
	if err := enc.Encode(map[string]any{"self_times": self, "spans": len(spans), "dropped": dropped}); err != nil {
		f.Close()
		return nil, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("writing span file: %w", err)
	}
	return self, nil
}

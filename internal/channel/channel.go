// Package channel provides the message transports between verifier and
// prover: an in-process simulated link with virtual-time accounting (the
// lab network of the paper's measurements), either as a pair of
// endpoints or with the prover as a Handler run inline on the sender's
// goroutine, and a TCP transport for real deployments, plus a tap for
// adversary-in-the-middle experiments.
package channel

import (
	"fmt"
	"io"
	"sync"
	"time"

	"sacha/internal/ethsim"
	"sacha/internal/sim"
)

// Endpoint is one end of a duplex message channel.
//
// Ownership: Send must not retain msg after it returns, so a caller may
// reuse its encode buffer for the next message (SimEndpoint marshals
// into a fresh frame, InlineEndpoint hands it to a Handler that does not
// retain it, DelayEndpoint and FaultEndpoint copy what they hold, TCP
// writes synchronously). Recv hands ownership of the returned
// slice to the caller.
type Endpoint interface {
	// Send transmits one message to the peer.
	Send(msg []byte) error
	// Recv blocks until a message arrives; it returns io.EOF after the
	// peer closes.
	Recv() ([]byte, error)
	Close() error
}

// SimConfig parameterises the simulated link.
type SimConfig struct {
	// Timeline, if non-nil, accumulates virtual time: "wire" for Gigabit
	// line time and "latency" for the per-message stack/switch latency.
	Timeline *sim.Timeline
	// MessageLatency is charged per message sent by the A endpoint (the
	// command initiator — the verifier); it models the per-command
	// software and switch overhead that makes the paper's measured
	// 28.5 s so much larger than the theoretical 1.443 s.
	MessageLatency time.Duration
	// Ethernet, when true, carries every message inside an Ethernet II
	// frame with a real FCS: senders marshal, receivers verify the CRC
	// and strip the header — the ETH-core path of Fig. 10.
	Ethernet bool
	// AddrA and AddrB are the endpoint MAC addresses in Ethernet mode
	// (A is the first endpoint returned by SimPair).
	AddrA, AddrB ethsim.MAC
}

// queue is an unbounded FIFO usable across goroutines. It pops by head
// index and reuses its backing array, so a steady push/pop stream does
// not reallocate.
type queue[T any] struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []T
	head   int // items[head:] are queued
	closed bool
}

func newQueue[T any]() *queue[T] {
	q := &queue[T]{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push appends v; it reports false once the queue is closed.
func (q *queue[T]) push(v T) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	if q.head > 0 && len(q.items) == cap(q.items) {
		// Full with a consumed prefix: slide the live items down
		// instead of growing.
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
	q.cond.Signal()
	return true
}

// pop blocks until an item is queued and returns it; it reports false
// once the queue is closed and drained.
func (q *queue[T]) pop() (T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head == len(q.items) && !q.closed {
		q.cond.Wait()
	}
	var zero T
	if q.head == len(q.items) {
		return zero, false
	}
	v := q.items[q.head]
	q.items[q.head] = zero // drop the reference for the GC
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v, true
}

func (q *queue[T]) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

// SimEndpoint is one end of an in-process simulated link.
type SimEndpoint struct {
	out, in   *queue[[]byte]
	cfg       SimConfig
	mu        *sync.Mutex // guards cfg.Timeline, shared by the pair
	src, dst  ethsim.MAC  // Ethernet-mode addressing
	initiator bool        // charges the per-command latency
}

// SimPair returns two connected endpoints. The first endpoint is the
// command initiator and carries the per-command latency.
func SimPair(cfg SimConfig) (a, b *SimEndpoint) {
	q1, q2 := newQueue[[]byte](), newQueue[[]byte]()
	mu := &sync.Mutex{}
	a = &SimEndpoint{out: q1, in: q2, cfg: cfg, mu: mu, src: cfg.AddrA, dst: cfg.AddrB, initiator: true}
	b = &SimEndpoint{out: q2, in: q1, cfg: cfg, mu: mu, src: cfg.AddrB, dst: cfg.AddrA}
	return a, b
}

// Send transmits a message, charging wire time and message latency to the
// timeline. In Ethernet mode the payload travels inside a framed packet
// with a real FCS.
func (e *SimEndpoint) Send(msg []byte) error {
	if e.cfg.Timeline != nil {
		e.mu.Lock()
		e.cfg.Timeline.Add("wire", ethsim.WireTime(len(msg)))
		if e.cfg.MessageLatency > 0 && e.initiator {
			e.cfg.Timeline.Add("latency", e.cfg.MessageLatency)
		}
		e.mu.Unlock()
	}
	var wire []byte
	if e.cfg.Ethernet {
		var err error
		if wire, err = marshal(nil, e.dst, e.src, msg); err != nil {
			return err
		}
	} else {
		wire = make([]byte, len(msg))
		copy(wire, msg)
	}
	if !e.out.push(wire) {
		return fmt.Errorf("channel: send on closed channel: %w", ErrClosed)
	}
	return nil
}

// Recv returns the next message from the peer. In Ethernet mode the FCS
// is verified and frames for other destinations or ethertypes rejected;
// the returned payload is a view into the received frame, which the
// sender's Marshal allocated and the queue handed over.
func (e *SimEndpoint) Recv() ([]byte, error) {
	raw, ok := e.in.pop()
	if !ok {
		return nil, io.EOF
	}
	if !e.cfg.Ethernet {
		return raw, nil
	}
	return unframe(raw, e.src)
}

// marshal appends msg to dst inside an Ethernet II frame with its FCS.
func marshal(dst []byte, to, from ethsim.MAC, msg []byte) ([]byte, error) {
	frame := ethsim.Frame{Dst: to, Src: from, EtherType: ethsim.EtherTypeSACHa, Payload: msg}
	wire, err := frame.AppendMarshal(dst)
	if err != nil {
		return nil, fmt.Errorf("channel: %w", err)
	}
	return wire, nil
}

// unframe verifies the FCS of a received frame, rejects other ethertypes
// and frames not addressed to self, and returns the payload as a view
// into raw.
func unframe(raw []byte, self ethsim.MAC) ([]byte, error) {
	frame, err := ethsim.View(raw)
	if err != nil {
		return nil, fmt.Errorf("channel: %w", err)
	}
	if frame.EtherType != ethsim.EtherTypeSACHa {
		return nil, fmt.Errorf("channel: unexpected ethertype %#04x", frame.EtherType)
	}
	if frame.Dst != self {
		return nil, fmt.Errorf("channel: frame for %v delivered to %v", frame.Dst, self)
	}
	return frame.Payload, nil
}

// Close shuts down both directions.
func (e *SimEndpoint) Close() error {
	e.out.close()
	e.in.close()
	return nil
}

// Tap wraps an endpoint and lets an adversary observe or rewrite traffic.
// A nil hook passes messages through unchanged; returning nil from OnSend
// drops the message.
type Tap struct {
	Inner  Endpoint
	OnSend func([]byte) []byte
	OnRecv func([]byte) []byte
}

// Send passes the message through the OnSend hook.
func (t *Tap) Send(msg []byte) error {
	if t.OnSend != nil {
		msg = t.OnSend(msg)
		if msg == nil {
			return nil // dropped by the adversary
		}
	}
	return t.Inner.Send(msg)
}

// Recv passes the received message through the OnRecv hook. Messages the
// hook drops (nil) are skipped.
func (t *Tap) Recv() ([]byte, error) {
	for {
		msg, err := t.Inner.Recv()
		if err != nil {
			return nil, err
		}
		if t.OnRecv != nil {
			msg = t.OnRecv(msg)
			if msg == nil {
				continue
			}
		}
		return msg, nil
	}
}

// Close closes the wrapped endpoint.
func (t *Tap) Close() error { return t.Inner.Close() }

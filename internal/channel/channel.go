// Package channel provides the message transports between verifier and
// prover: an in-process simulated link with virtual-time accounting (the
// lab network of the paper's measurements), with the prover as a Handler
// run inline on the sender's goroutine, a constant-latency wrapper for
// it, and a TCP transport for real deployments, plus a fault injector
// and a tap for adversary-in-the-middle experiments.
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
// reuse its encode buffer for the next message (InlineEndpoint hands it
// to a Handler that does not retain it, DelayEndpoint forwards it at
// once, FaultEndpoint copies what it holds, TCP writes synchronously).
// Recv hands ownership of the returned slice to the caller.
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
	// MessageLatency is charged per message the command initiator (the
	// verifier) sends; it models the per-command software and switch
	// overhead that makes the paper's measured 28.5 s so much larger
	// than the theoretical 1.443 s.
	MessageLatency time.Duration
	// Ethernet, when true, carries every message inside an Ethernet II
	// frame with a real FCS: senders marshal, receivers verify the CRC
	// and strip the header — the ETH-core path of Fig. 10.
	Ethernet bool
	// AddrA and AddrB are the MAC addresses of the initiator's and the
	// handler's end in Ethernet mode.
	AddrA, AddrB ethsim.MAC
}

// delivery is one queued message, or the error that ends the stream;
// it may be taken once its due time has passed (a zero due: at once).
type delivery struct {
	msg []byte
	err error
	due time.Time
}

// queue is an unbounded FIFO of deliveries with one consumer. It pops by
// head index and reuses its backing array, so a steady push/pop stream
// does not reallocate. The consumer waits on wake, which every push and
// close signal, and on its own reusable timer: no goroutine.
type queue struct {
	mu     sync.Mutex
	items  []delivery
	head   int // items[head:] are queued
	closed bool
	wake   chan struct{}
	timer  *time.Timer // the consumer's
}

func newQueue() *queue { return &queue{wake: make(chan struct{}, 1)} }

// push appends d; it reports false once the queue is closed.
func (q *queue) push(d delivery) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	if q.head > 0 && len(q.items) == cap(q.items) {
		// Full with a consumed prefix: slide the live items down
		// instead of growing.
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, d)
	q.mu.Unlock()
	q.signal()
	return true
}

func (q *queue) signal() {
	select {
	case q.wake <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// pop returns the head's message and error once the head is due. While
// nothing is due it waits for a push or close, but not past t (zero: no
// deadline), and returns ErrTimeout then; a delivery already due is
// returned even after t. A closed queue drains, then returns io.EOF.
func (q *queue) pop(t time.Time) ([]byte, error) {
	for {
		q.mu.Lock()
		var wait time.Time // the head's due time; zero while empty
		if q.head < len(q.items) {
			d := q.items[q.head]
			if d.due.IsZero() || !time.Now().Before(d.due) {
				q.items[q.head] = delivery{} // drop the reference for the GC
				q.head++
				if q.head == len(q.items) {
					q.items, q.head = q.items[:0], 0
				}
				q.mu.Unlock()
				return d.msg, d.err
			}
			wait = d.due
		} else if q.closed {
			q.mu.Unlock()
			return nil, io.EOF
		}
		q.mu.Unlock()
		if !t.IsZero() {
			if !time.Now().Before(t) {
				return nil, ErrTimeout
			}
			if wait.IsZero() || t.Before(wait) {
				wait = t
			}
		}
		if wait.IsZero() {
			<-q.wake
			continue
		}
		if q.timer == nil {
			q.timer = time.NewTimer(time.Until(wait))
		} else {
			q.timer.Reset(time.Until(wait))
		}
		select {
		case <-q.wake:
			if !q.timer.Stop() {
				// Fired meanwhile: drop the tick so the next Reset
				// starts clean (a no-op where Stop already did).
				select {
				case <-q.timer.C:
				default:
				}
			}
		case <-q.timer.C:
		}
	}
}

func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.signal()
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
func (t *Tap) Recv() ([]byte, error) { return t.RecvUntil(time.Time{}) }

// RecvUntil is Recv with the deadline passed through to Inner.
func (t *Tap) RecvUntil(dl time.Time) ([]byte, error) {
	for {
		msg, err := recvUntil(t.Inner, dl)
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

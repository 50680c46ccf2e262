package channel

import (
	"io"
	"sync"
	"time"
)

// DelayEndpoint wraps an endpoint with a constant one-way latency in each
// direction, modelling a long link honestly for pipelined protocols:
// every message is stamped with a due time when it enters the wrapper and
// delivered when that time passes, so messages in flight age
// *concurrently*. (FaultDelay sleeps inline inside Send/Recv, which
// serialises back-to-back messages and would make any pipelining
// benchmark meaningless.) A lockstep exchange over a DelayEndpoint pays
// the full round trip per command; a windowed exchange pays it roughly
// once per window.
type DelayEndpoint struct {
	inner   Endpoint
	latency time.Duration
	out, in *queue[delayItem]

	mu      sync.Mutex
	sendErr error
}

// delayItem is one stamped message. Delivery-time sleeping is the
// consumer's job, so queued messages keep aging while earlier ones are
// drained.
type delayItem struct {
	msg []byte
	due time.Time
	err error
}

// NewDelayEndpoint wraps inner with the given one-way latency per
// direction (a send and its response therefore pay 2×latency round trip).
func NewDelayEndpoint(inner Endpoint, latency time.Duration) *DelayEndpoint {
	d := &DelayEndpoint{inner: inner, latency: latency, out: newQueue[delayItem](), in: newQueue[delayItem]()}
	go d.sendPump()
	go d.recvPump()
	return d
}

func (d *DelayEndpoint) sendPump() {
	for {
		it, ok := d.out.pop()
		if !ok {
			return
		}
		sleepUntil(it.due)
		if err := d.inner.Send(it.msg); err != nil {
			d.mu.Lock()
			if d.sendErr == nil {
				d.sendErr = err
			}
			d.mu.Unlock()
		}
	}
}

func (d *DelayEndpoint) recvPump() {
	for {
		msg, err := d.inner.Recv()
		if !d.in.push(delayItem{msg: msg, due: time.Now().Add(d.latency), err: err}) {
			return
		}
		if err != nil {
			return
		}
	}
}

func sleepUntil(due time.Time) {
	if w := time.Until(due); w > 0 {
		time.Sleep(w)
	}
}

// Send stamps the message and returns immediately; the wire sees it one
// latency later. An inner send failure surfaces on a later Send (the
// caller's retry layer treats it like a lost message either way).
func (d *DelayEndpoint) Send(msg []byte) error {
	d.mu.Lock()
	err := d.sendErr
	d.mu.Unlock()
	if err != nil {
		return err
	}
	cp := make([]byte, len(msg))
	copy(cp, msg)
	if !d.out.push(delayItem{msg: cp, due: time.Now().Add(d.latency)}) {
		return ErrClosed
	}
	return nil
}

// Recv returns the next message once its one-way latency has elapsed.
func (d *DelayEndpoint) Recv() ([]byte, error) {
	it, ok := d.in.pop()
	if !ok {
		return nil, io.EOF
	}
	sleepUntil(it.due)
	return it.msg, it.err
}

// Close shuts the wrapper and the wrapped endpoint down.
func (d *DelayEndpoint) Close() error {
	d.out.close()
	d.in.close()
	return d.inner.Close()
}

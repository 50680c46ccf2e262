package channel

import (
	"errors"
	"time"
)

// DelayEndpoint wraps a simulated link with a constant one-way latency in
// each direction, modelling a long link honestly for pipelined protocols:
// messages in flight age *concurrently* (FaultDelay sleeps inline, which
// serialises them). A lockstep exchange over it pays the full round trip
// per command; a windowed exchange pays it roughly once per window.
//
// It runs no goroutine. Send forwards the request at once and queues the
// responses inner has by then, each due one round trip after the request
// went in, as if it had crossed the wire first; a receive sleeps until
// the head is due, one timer wake per message at most. inner must answer
// within its Send (an InlineEndpoint, or a FaultEndpoint or Tap around
// one). A Send or Close on another goroutine wakes a blocked Recv.
type DelayEndpoint struct {
	inner   UntilEndpoint
	latency time.Duration
	in      *queue
}

// NewDelayEndpoint wraps inner with the given one-way latency per
// direction (a send and its response therefore pay 2×latency round trip).
func NewDelayEndpoint(inner Endpoint, latency time.Duration) *DelayEndpoint {
	return &DelayEndpoint{inner: inner.(UntilEndpoint), latency: latency, in: newQueue()}
}

// Send forwards the message and queues the responses it drew, due one
// round trip from now; an error the request drew in place of a response
// is queued the same way.
func (d *DelayEndpoint) Send(msg []byte) error {
	now := time.Now()
	if err := d.inner.Send(msg); err != nil {
		return err
	}
	due := now.Add(2 * d.latency)
	for {
		resp, err := d.inner.RecvUntil(now)
		if errors.Is(err, ErrTimeout) {
			return nil
		}
		// A closed queue means a concurrent Close: the link is gone.
		if !d.in.push(delivery{msg: resp, err: err, due: due}) || err != nil {
			return nil
		}
	}
}

// Recv returns the next message once its round trip has elapsed.
func (d *DelayEndpoint) Recv() ([]byte, error) { return d.in.pop(time.Time{}) }

// RecvUntil is Recv bounded by t.
func (d *DelayEndpoint) RecvUntil(t time.Time) ([]byte, error) { return d.in.pop(t) }

// Close shuts the wrapper and the wrapped endpoint down.
func (d *DelayEndpoint) Close() error {
	d.in.close()
	return d.inner.Close()
}

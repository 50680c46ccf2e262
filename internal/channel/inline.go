package channel

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"sacha/internal/ethsim"
)

// Handler is a prover as a function: it answers one request with zero or
// more responses. It must not retain req, and the responses it returns
// are valid only until its next call. An error ends the session.
type Handler func(req []byte) ([][]byte, error)

// InlineEndpoint is the command initiator's end of a simulated link whose
// far end is a Handler: Send runs the handler on the calling goroutine
// and queues its responses for Recv, so no second goroutine and no
// cross-goroutine handoff is needed per message. The link charges the
// Timeline wire time per message both ways and MessageLatency per
// request; in Ethernet mode every message is framed with a real FCS and
// verified (FCS, ethertype, destination) on the receiving side.
//
// Responses are queued before Send returns, so a receive after a Send
// pops without waiting; on an empty queue it waits for its deadline, or
// a Send or Close on another goroutine. A handler error, or a request
// the handler's side cannot unframe or answer, closes the link: the
// error is kept for Err, queued responses drain, then Recv returns
// io.EOF and Send ErrClosed.
type InlineEndpoint struct {
	h   Handler
	cfg SimConfig
	in  *queue

	// mu is held across the handler call: it serialises the handler,
	// whose device is single-threaded, and lets Close wait for a call in
	// progress. A handler therefore must not call back into its endpoint.
	mu     sync.Mutex
	closed bool
	err    error
	req    []byte // request frame; reused because the handler never retains it
}

// NewInline returns the initiator endpoint of a simulated link served by
// h. cfg.AddrA addresses this endpoint, cfg.AddrB the handler.
func NewInline(h Handler, cfg SimConfig) *InlineEndpoint {
	return &InlineEndpoint{h: h, cfg: cfg, in: newQueue()}
}

// Send charges wire time and message latency for the request, delivers
// it to the handler and queues the handler's responses, each charged its
// wire time and framed into a fresh slice.
func (e *InlineEndpoint) Send(msg []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return fmt.Errorf("channel: send on closed channel: %w", ErrClosed)
	}
	tl := e.cfg.Timeline
	if tl != nil {
		tl.Add("wire", ethsim.WireTime(len(msg)))
		if e.cfg.MessageLatency > 0 {
			tl.Add("latency", e.cfg.MessageLatency)
		}
	}
	req := msg
	if e.cfg.Ethernet {
		wire, err := marshal(e.req[:0], e.cfg.AddrB, e.cfg.AddrA, msg)
		if err != nil {
			return err
		}
		e.req = wire
		if req, err = unframe(wire, e.cfg.AddrB); err != nil {
			e.fail(err)
			return nil
		}
	}
	resps, err := e.h(req)
	if err != nil {
		e.fail(err)
		return nil
	}
	for _, resp := range resps {
		if tl != nil {
			tl.Add("wire", ethsim.WireTime(len(resp)))
		}
		wire := resp
		if !e.cfg.Ethernet {
			wire = slices.Clone(resp)
		} else if wire, err = marshal(nil, e.cfg.AddrA, e.cfg.AddrB, resp); err != nil {
			e.fail(err)
			return nil
		}
		e.in.push(delivery{msg: wire})
	}
	return nil
}

// fail closes the link on a handler-side error. e.mu is held.
func (e *InlineEndpoint) fail(err error) {
	e.err, e.closed = err, true
	e.in.close()
}

// Recv returns the next queued response. In Ethernet mode the FCS is
// verified and frames for other destinations or ethertypes rejected; the
// payload is a view into the frame Send allocated for it.
func (e *InlineEndpoint) Recv() ([]byte, error) { return e.RecvUntil(time.Time{}) }

// RecvUntil is Recv bounded by t.
func (e *InlineEndpoint) RecvUntil(t time.Time) ([]byte, error) {
	raw, err := e.in.pop(t)
	if err != nil || !e.cfg.Ethernet {
		return raw, err
	}
	return unframe(raw, e.cfg.AddrA)
}

// Close shuts the link down. It waits for a handler call in progress, so
// once Close returns the handler is never called again.
func (e *InlineEndpoint) Close() error {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.in.close()
	return nil
}

// Err returns the error that closed the link from the handler's side, or
// nil.
func (e *InlineEndpoint) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

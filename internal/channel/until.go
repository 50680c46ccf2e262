package channel

import "time"

// UntilEndpoint is an Endpoint whose receive takes a deadline, so a
// caller can wait for a message and for its own timer on one goroutine.
type UntilEndpoint interface {
	Endpoint
	// RecvUntil is Recv bounded by t: it returns ErrTimeout once t has
	// passed with no message to hand over. A zero t means no deadline.
	RecvUntil(t time.Time) ([]byte, error)
}

// WithRecvUntil returns ep with a deadline receive: ep itself when it
// has one (every endpoint of this package, unless it wraps one without),
// else an adapter whose goroutine receives ahead of the caller. release,
// called once the caller is done receiving, lets that goroutine exit as
// soon as ep's Recv returns, which closing ep forces.
func WithRecvUntil(ep Endpoint) (UntilEndpoint, func()) {
	if hasRecvUntil(ep) {
		return ep.(UntilEndpoint), func() {}
	}
	p := &recvPump{Endpoint: ep, in: newQueue()}
	go p.run()
	return p, p.in.close
}

// hasRecvUntil reports whether ep's RecvUntil honours its deadline; a
// wrapper's does exactly when what it wraps does.
func hasRecvUntil(ep Endpoint) bool {
	switch w := ep.(type) {
	case *FaultEndpoint:
		return hasRecvUntil(w.inner)
	case *Tap:
		return hasRecvUntil(w.Inner)
	}
	_, ok := ep.(UntilEndpoint)
	return ok
}

// recvUntil receives from ep with deadline t, or blocks in ep.Recv when
// ep has no deadline receive.
func recvUntil(ep Endpoint, t time.Time) ([]byte, error) {
	if u, ok := ep.(UntilEndpoint); ok {
		return u.RecvUntil(t)
	}
	return ep.Recv()
}

// recvPump is WithRecvUntil's adapter. Its goroutine stops at the first
// receive error (the connection is gone for good) or once the queue is
// closed; the queue is unbounded, so an idle caller never strands it.
type recvPump struct {
	Endpoint
	in *queue
}

func (p *recvPump) run() {
	for {
		msg, err := p.Endpoint.Recv()
		if !p.in.push(delivery{msg: msg, err: err}) || err != nil {
			p.in.close()
			return
		}
	}
}

func (p *recvPump) Recv() ([]byte, error) { return p.in.pop(time.Time{}) }

func (p *recvPump) RecvUntil(t time.Time) ([]byte, error) { return p.in.pop(t) }

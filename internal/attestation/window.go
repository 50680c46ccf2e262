package attestation

import (
	"errors"
	"time"

	"sacha/internal/channel"
	"sacha/internal/protocol"
)

// slot is one window position's reused state: the envelope it ships,
// the response it holds until delivery, and its retry bookkeeping.
type slot struct {
	wire     []byte
	resp     protocol.Message
	op       opLabel
	attempts int
	// due is the response deadline, or, while backoff is set, the end of
	// the pause before the next re-send.
	due     time.Time
	backoff bool
	got     bool
	lastErr error
}

// exchange is the session's one engine: it ships n pre-encoded commands,
// cmd(k) yielding the k-th with its step label, and hands each response
// to deliver strictly in command order — the correctness invariant of
// the readback phase, where the CMAC and the transcript are
// order-sensitive. deliver must not retain a response: the engine
// reuses its storage.
//
// Plain mode is the paper's protocol: send, then receive the answer,
// one command at a time. Commands whose plain form has no answer
// (ICAP_config; plainReply false) are delivered a nil response.
//
// Reliable mode keeps up to Retry.Window sequence envelopes outstanding
// (window 1 is the paper's stop-and-wait exchange) and matches responses
// by sequence number whatever order they arrive in. Every command is
// acknowledged. A command whose response times out, or whose send fails,
// is re-sent with the same sequence number after the jittered
// exponential backoff, up to MaxRetries times; a lost frame re-sends
// only that frame instead of stalling the whole pipe.
func (s *session) exchange(n int, cmd func(k int) ([]byte, opLabel), plainReply bool, deliver func(k int, resp *protocol.Message) error) error {
	if !s.pol.Enabled() {
		for k := 0; k < n; k++ {
			enc, op := cmd(k)
			if err := s.ep.Send(enc); err != nil {
				return &TransportError{Op: op.String(), Attempts: 1, Err: err}
			}
			var resp *protocol.Message
			if plainReply {
				raw, err := s.ep.Recv()
				if err == nil {
					err = protocol.DecodeInto(&s.resp, raw)
				}
				if err != nil {
					return &TransportError{Op: op.String(), Attempts: 1, Err: err}
				}
				resp = &s.resp
			}
			if err := deliver(k, resp); err != nil {
				return err
			}
		}
		return nil
	}

	w := len(s.slots)
	first := s.seq + 1 // command k travels as sequence first+k
	next, done := 0, 0 // next command to send; next response to deliver
	// The occupancy gauge tracks envelopes in flight across all
	// concurrent runs: +1 when a command first ships, -1 when its
	// response is delivered; the deferred settle drains whatever is
	// still outstanding when the run exits (success or error).
	defer func() { mWindowInflight.Add(int64(done - next)) }()
	for done < n {
		// Fill the window. Until the prover has answered the session's
		// first envelope only that one is in flight: the prover pins its
		// sequence base on the first envelope it sees, and a reordered
		// opening burst could pin it past outstanding commands.
		for next < n && next-done < w && (s.pinned || next == done) {
			e := &s.slots[next%w]
			enc, op := cmd(next)
			s.seq++
			env := protocol.Message{Type: protocol.MsgSeqReq, Seq: s.seq, Inner: enc}
			wire, err := env.AppendEncode(e.wire[:0])
			if err != nil {
				return err
			}
			e.wire, e.op, e.attempts, e.got = wire, op, 0, false
			if err := s.send(e); err != nil {
				return err
			}
			mWindowInflight.Inc()
			mWindowCmds.Inc()
			next++
		}

		// Wait for a response until the earliest deadline still
		// outstanding; the delivery cursor's own command always is.
		due := s.slots[done%w].due
		for i := done + 1; i < next; i++ {
			if e := &s.slots[i%w]; !e.got && e.due.Before(due) {
				due = e.due
			}
		}
		raw, err := s.rx.RecvUntil(due)
		if err != nil {
			// A timeout before the deadline is the link's own failure.
			now := time.Now()
			if !errors.Is(err, channel.ErrTimeout) || now.Before(due) {
				e := &s.slots[done%w]
				return &TransportError{Op: e.op.String(), Attempts: e.attempts, Err: err}
			}
			for i := done; i < next; i++ {
				e := &s.slots[i%w]
				if e.got || e.due.After(now) {
					continue
				}
				if e.backoff {
					s.noteRetry()
					if err := s.send(e); err != nil {
						return err
					}
					continue
				}
				mTimeouts.Inc()
				if err := s.retryLater(e); err != nil {
					return err
				}
			}
			continue
		}
		env := &s.env
		if err := protocol.DecodeInto(env, raw); err != nil || env.Type != protocol.MsgSeqResp {
			s.noteFault()
			continue
		}
		// A batch's sequence numbers are contiguous, so the command a
		// response answers is its offset from first. Anything outside
		// the outstanding range, or already held, is a stale duplicate
		// or garbage with a well-formed envelope.
		k := env.Seq - first
		if k < uint32(done) || k >= uint32(next) {
			s.noteFault()
			continue
		}
		e := &s.slots[int(k)%w]
		if e.got || protocol.DecodeInto(&e.resp, env.Inner) != nil {
			s.noteFault()
			continue
		}
		e.got, s.pinned = true, true
		// Reorder arrivals into command order: deliver every response
		// now contiguous with the delivery cursor.
		for done < next && s.slots[done%w].got {
			if err := deliver(done, &s.slots[done%w].resp); err != nil {
				return err
			}
			done++
			mWindowInflight.Dec()
		}
	}
	return nil
}

// send ships (or re-ships) one slot's envelope and arms its response
// deadline. A send that fails without closing the link counts as a
// failed attempt and backs off like a timeout.
func (s *session) send(e *slot) error {
	e.attempts++
	e.backoff = false
	e.lastErr = channel.ErrTimeout
	if err := s.ep.Send(e.wire); err != nil {
		e.lastErr = err
		if errors.Is(err, channel.ErrClosed) || errors.Is(err, channel.ErrReset) {
			return &TransportError{Op: e.op.String(), Attempts: e.attempts, Err: err}
		}
		return s.retryLater(e)
	}
	e.due = time.Now().Add(s.pol.Timeout)
	return nil
}

// retryLater schedules a failed slot's re-send after the backoff, or
// gives up once the retry budget is spent.
func (s *session) retryLater(e *slot) error {
	if e.attempts > s.pol.MaxRetries {
		return &TransportError{Op: e.op.String(), Attempts: e.attempts, Err: e.lastErr}
	}
	e.backoff = true
	e.due = time.Now().Add(s.backoff(e.attempts))
	return nil
}

// call runs one command through the engine and returns its response,
// which the session owns until its next exchange.
func (s *session) call(enc []byte, op opLabel) (*protocol.Message, error) {
	var resp *protocol.Message
	err := s.exchange(1, func(int) ([]byte, opLabel) { return enc, op }, true,
		func(_ int, r *protocol.Message) error {
			resp = r
			return nil
		})
	return resp, err
}

package attestation

import (
	"errors"
	"time"

	"sacha/internal/channel"
	"sacha/internal/protocol"
)

// windowCmd is one pre-encoded command queued for a pipelined phase.
type windowCmd struct {
	enc []byte
	op  opLabel
}

// runWindow drives a sliding-window pipelined exchange of cmds over the
// reliable transport: up to window sequence envelopes stay outstanding,
// responses are matched by sequence number whatever order they arrive in,
// and deliver is invoked strictly in cmds order — the correctness
// invariant of the readback phase, where the CMAC and the transcript are
// order-sensitive. Each outstanding sequence runs its own retry timer, so
// a single dropped frame re-sends only that frame instead of stalling the
// whole pipe.
//
// The first envelope of a session must already have been exchanged in
// lockstep before runWindow is used: the prover pins its sequence base on
// the first envelope it sees, and a reordered opening burst could
// otherwise pin the base past outstanding commands.
func (s *session) runWindow(cmds []windowCmd, window int, deliver func(k int, resp *protocol.Message) error) error {
	if len(cmds) == 0 {
		return nil
	}
	if window > MaxWindow {
		window = MaxWindow
	}
	if window > len(cmds) {
		window = len(cmds)
	}
	if window < 1 {
		window = 1
	}

	type entry struct {
		seq      uint32
		wire     []byte
		op       opLabel
		attempts int
		deadline time.Time
		resp     *protocol.Message
		got      bool
		lastErr  error
	}
	entries := make([]entry, len(cmds))
	pending := make(map[uint32]int, window)
	maxAttempts := s.pol.MaxRetries + 1

	// sendEntry ships (or re-ships) one envelope and arms its retry
	// timer. A transient send failure is treated like a lost message: the
	// entry's deadline is pulled in so the timer path re-sends it soon.
	sendEntry := func(i int, resend bool) error {
		e := &entries[i]
		if e.attempts >= maxAttempts {
			err := e.lastErr
			if err == nil {
				err = channel.ErrTimeout
			}
			return &TransportError{Op: e.op.String(), Attempts: e.attempts, Err: err}
		}
		e.attempts++
		if resend {
			s.noteRetry()
		}
		if err := s.ep.Send(e.wire); err != nil {
			e.lastErr = err
			if errors.Is(err, channel.ErrClosed) || errors.Is(err, channel.ErrReset) {
				return &TransportError{Op: e.op.String(), Attempts: e.attempts, Err: err}
			}
			e.deadline = time.Now().Add(s.pol.Backoff)
			return nil
		}
		e.lastErr = channel.ErrTimeout
		e.deadline = time.Now().Add(s.pol.Timeout)
		return nil
	}

	timer := time.NewTimer(time.Hour)
	stopTimer := func() {
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
	}
	stopTimer()
	defer stopTimer()

	next, done := 0, 0 // next command to send; next response to deliver
	// The occupancy gauge tracks envelopes in flight across all
	// concurrent runs: +1 when a command first ships, -1 when its
	// response is delivered; the deferred settle drains whatever is
	// still outstanding when the run exits (success or error).
	defer func() { mWindowInflight.Add(int64(done - next)) }()
	for done < len(cmds) {
		for next < len(cmds) && next-done < window {
			e := &entries[next]
			s.seq++
			e.seq = s.seq
			wire, err := protocol.WrapReq(e.seq, cmds[next].enc).Encode()
			if err != nil {
				return err
			}
			e.wire = wire
			e.op = cmds[next].op
			pending[e.seq] = next
			if err := sendEntry(next, false); err != nil {
				return err
			}
			mWindowInflight.Inc()
			mWindowCmds.Inc()
			next++
		}
		if s.recvErr != nil {
			e := &entries[done]
			return &TransportError{Op: e.op.String(), Attempts: e.attempts, Err: s.recvErr}
		}

		// Arm the timer for the earliest per-sequence retry deadline.
		var min time.Time
		for i := done; i < next; i++ {
			if entries[i].got {
				continue
			}
			if min.IsZero() || entries[i].deadline.Before(min) {
				min = entries[i].deadline
			}
		}
		wait := time.Until(min)
		if wait < 0 {
			wait = 0
		}
		timer.Reset(wait)

		select {
		case r := <-s.recvCh:
			stopTimer()
			if r.err != nil {
				s.recvErr = r.err
				e := &entries[done]
				return &TransportError{Op: e.op.String(), Attempts: e.attempts, Err: r.err}
			}
			env := &s.env
			if err := protocol.DecodeInto(env, r.raw); err != nil || env.Type != protocol.MsgSeqResp {
				s.noteFault()
				continue
			}
			i, ok := pending[env.Seq]
			if !ok {
				// A stale duplicate of an already-delivered sequence, or
				// garbage with a well-formed envelope.
				s.noteFault()
				continue
			}
			inner, err := protocol.Decode(env.Inner)
			if err != nil {
				s.noteFault()
				continue
			}
			entries[i].resp = inner
			entries[i].got = true
			delete(pending, env.Seq)
			// Reorder arrivals into plan order: deliver every response
			// that is now contiguous with the delivery cursor.
			for done < next && entries[done].got {
				if err := deliver(done, entries[done].resp); err != nil {
					return err
				}
				entries[done].resp = nil
				done++
				mWindowInflight.Dec()
			}

		case now := <-timer.C:
			for i := done; i < next; i++ {
				e := &entries[i]
				if e.got || e.deadline.After(now) {
					continue
				}
				mTimeouts.Inc()
				if err := sendEntry(i, true); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

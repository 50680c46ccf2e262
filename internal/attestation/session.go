package attestation

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"sacha/internal/channel"
	"sacha/internal/protocol"
)

// RetryPolicy makes an attestation survive an unreliable transport. When
// enabled (Timeout > 0) the Run wraps every command in a sequence
// envelope (protocol.MsgSeqReq), waits up to Timeout for the matching
// response, and re-sends up to MaxRetries times with exponential backoff
// plus jitter — the same schedule at every window size. Re-sends are
// idempotent: the prover executes each sequence number at most once and
// replays the cached response for duplicates.
//
// The zero value disables the reliable transport entirely; the Run then
// speaks the paper's bare protocol and blocks on a lossy link.
type RetryPolicy struct {
	// Timeout bounds the wait for each response; it also switches the
	// reliable transport on.
	Timeout time.Duration
	// MaxRetries is the number of re-sends after the first attempt.
	MaxRetries int
	// Backoff is the pause between a command's failed attempt (timeout,
	// or a send error that leaves the link open) and its first re-send;
	// it doubles each retry up to MaxBackoff, and each pause is jittered
	// into [d/2, d). Defaults to 5ms / 250ms when unset.
	Backoff, MaxBackoff time.Duration
	// Seed drives the backoff jitter.
	Seed int64
	// Window is the maximum number of enveloped commands kept outstanding
	// by the exchange engine, which runs every phase and command of a Run.
	// 0 or 1 reproduces the paper's lockstep exchange; larger values hide
	// the link round-trip behind up to Window in-flight frames. Values
	// beyond MaxWindow are clamped — the prover's reorder buffer and
	// response cache are sized for MaxWindow outstanding sequences.
	// Responses are re-ordered into plan order before the CMAC/transcript
	// absorbs them, so the window size never changes H_Vrf or the verdict.
	// Window only takes effect with the reliable transport (Timeout > 0).
	Window int
}

// MaxWindow caps RetryPolicy.Window. It must not exceed the prover's
// out-of-order bound (prover.SeqWindow): the prover buffers at most that
// many sequence numbers ahead of the next expected one, and its response
// cache must cover every request the verifier may still re-send.
const MaxWindow = 64

// windowSize returns the effective pipeline depth: at least 1, at most
// MaxWindow.
func (p RetryPolicy) windowSize() int {
	if p.Window <= 1 {
		return 1
	}
	if p.Window > MaxWindow {
		return MaxWindow
	}
	return p.Window
}

// Enabled reports whether the reliable transport is active.
func (p RetryPolicy) Enabled() bool { return p.Timeout > 0 }

// DefaultRetryPolicy is a reasonable starting point for a real network.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{Timeout: 500 * time.Millisecond, MaxRetries: 6,
		Backoff: 10 * time.Millisecond, MaxBackoff: 250 * time.Millisecond}
}

// TransportError is the typed failure of the transport layer: the retry
// budget was exhausted (or, with retries disabled, a single exchange
// failed) without the protocol itself rejecting anything. It is how the
// verifier distinguishes "could not talk to the device" from "the device
// is compromised" — a fleet manager must never conflate the two.
type TransportError struct {
	// Op names the protocol step that failed, e.g. "ICAP_readback(17)".
	Op string
	// Attempts is how many sends were made before giving up.
	Attempts int
	// Err is the underlying cause (channel.ErrTimeout, io.EOF, ...).
	Err error
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("verifier: transport failure at %s after %d attempt(s): %v", e.Op, e.Attempts, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// IsTransport reports whether err is (or wraps) a TransportError.
func IsTransport(err error) bool {
	var te *TransportError
	return errors.As(err, &te)
}

// opLabel names a protocol step for TransportError.Op and error texts.
// It is formatted only when an error needs it: format carries at most
// one %d verb, filled from arg, e.g. {"ICAP_readback(%d)", 17}.
type opLabel struct {
	format string
	arg    int
}

// op labels a step without an argument.
func op(name string) opLabel { return opLabel{format: name} }

func (o opLabel) String() string {
	if !strings.Contains(o.format, "%") {
		return o.format
	}
	return fmt.Sprintf(o.format, o.arg)
}

// session drives the message exchanges of one Run; every message goes
// through its one engine, exchange (window.go). In plain mode it
// reproduces the paper's lockstep protocol exactly; in reliable mode it
// adds the envelope, response matching, timeouts and retries, waiting
// for responses and retry deadlines alike in one deadline receive.
// Commands arrive pre-encoded from the Plan, so the session never
// touches the message structs it ships.
type session struct {
	ep  channel.Endpoint
	pol RetryPolicy
	rep *Report

	// rx is ep's deadline receive in reliable mode; release, which every
	// Run defers, frees what channel.WithRecvUntil needed for it.
	rx      channel.UntilEndpoint
	release func()

	// resp is the plain protocol's reused decode target and env the
	// reliable transport's for incoming envelopes; slots holds one reused
	// envelope buffer and response per window position.
	resp, env protocol.Message
	slots     []slot

	seq uint32
	// pinned: the prover has answered the session's first envelope, so
	// its sequence base is fixed and a window may fill.
	pinned bool
	rng    *rand.Rand
}

func newSession(ep channel.Endpoint, pol RetryPolicy, rep *Report) *session {
	s := &session{ep: ep, pol: pol, rep: rep, release: func() {}}
	if !pol.Enabled() {
		return s
	}
	if s.pol.Backoff <= 0 {
		s.pol.Backoff = 5 * time.Millisecond
	}
	if s.pol.MaxBackoff < s.pol.Backoff {
		s.pol.MaxBackoff = 250 * time.Millisecond
		if s.pol.MaxBackoff < s.pol.Backoff {
			s.pol.MaxBackoff = s.pol.Backoff
		}
	}
	s.rng = rand.New(rand.NewSource(pol.Seed))
	s.slots = make([]slot, pol.windowSize())
	s.rx, s.release = channel.WithRecvUntil(ep)
	return s
}

// noteRetry counts one message re-send in the per-run report and the
// process-wide transport metrics.
func (s *session) noteRetry() {
	s.rep.Retries++
	mRetries.Inc()
}

// noteFault counts one discarded incoming message (corrupt envelope,
// stale duplicate) in the per-run report and the process-wide metrics.
func (s *session) noteFault() {
	s.rep.TransportFaults++
	mTransportFaults.Inc()
}

// backoff is the pause before the re-send that follows attempt failed
// attempts: exponential from Backoff, capped at MaxBackoff, with jitter
// in [d/2, d) so a fleet of verifiers does not re-send in lockstep. It
// draws the rng once.
func (s *session) backoff(attempt int) time.Duration {
	d := s.pol.Backoff
	for i := 1; i < attempt && d < s.pol.MaxBackoff; i++ {
		d *= 2
	}
	if d > s.pol.MaxBackoff {
		d = s.pol.MaxBackoff
	}
	if d > 1 {
		d = d/2 + time.Duration(s.rng.Int63n(int64(d/2)))
	}
	return d
}

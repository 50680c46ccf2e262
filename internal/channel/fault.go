package channel

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"sacha/internal/obs"
)

// Typed transport errors. Wrappers and the TCP endpoint return these so
// callers can distinguish transport faults from protocol-level failures
// (errors.Is works through any wrapping).
var (
	// ErrClosed is returned by Send/Recv after the endpoint was closed
	// locally.
	ErrClosed = errors.New("channel: endpoint closed")
	// ErrTimeout is returned when a per-message deadline expires.
	ErrTimeout = errors.New("channel: i/o timeout")
	// ErrReset is returned after a fault-injected connection reset.
	ErrReset = errors.New("channel: connection reset")
	// ErrZeroLength is returned by TCPEndpoint.Recv for a zero-length
	// message header, which the protocol never produces (every message
	// carries at least a type byte).
	ErrZeroLength = errors.New("channel: zero-length message")
)

// FaultKind enumerates the injectable transport faults.
type FaultKind int

const (
	// FaultNone passes the message through unchanged.
	FaultNone FaultKind = iota
	// FaultDrop silently discards the message.
	FaultDrop
	// FaultDuplicate delivers the message twice.
	FaultDuplicate
	// FaultReorder holds the message back for ReorderWindow later
	// messages before delivering it.
	FaultReorder
	// FaultCorrupt flips one random bit of the message.
	FaultCorrupt
	// FaultDelay delivers the message after sleeping Delay.
	FaultDelay
	// FaultReset closes the underlying endpoint; every later operation
	// returns ErrReset.
	FaultReset
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultDrop:
		return "drop"
	case FaultDuplicate:
		return "duplicate"
	case FaultReorder:
		return "reorder"
	case FaultCorrupt:
		return "corrupt"
	case FaultDelay:
		return "delay"
	case FaultReset:
		return "reset"
	}
	return "unknown"
}

// Direction distinguishes the two message flows through a FaultEndpoint.
type Direction int

const (
	// DirSend faults messages passed to Send.
	DirSend Direction = iota
	// DirRecv faults messages returned by Recv.
	DirRecv
)

// FaultOp is one scripted fault: the Index-th message (0-based, counted
// per direction) suffers Kind. Scripted faults take precedence over the
// probabilistic draws, making single-fault experiments deterministic.
type FaultOp struct {
	Dir   Direction
	Index int
	Kind  FaultKind
}

// FaultConfig parameterises a FaultEndpoint. All probabilities are per
// message and per direction; the zero value injects nothing.
type FaultConfig struct {
	// Seed drives the fault lottery and the corruption bit choice; equal
	// seeds reproduce identical fault sequences.
	Seed int64
	// Source, if non-nil, replaces the rand source derived from Seed —
	// the hook a campaign scheduler uses to hand the injector a stream
	// it controls end to end. Seed is ignored when Source is set.
	Source rand.Source
	// Sleep, if non-nil, replaces time.Sleep for FaultDelay injection.
	// Soak campaigns substitute a virtual clock here so delay storms
	// exercise the delay code path without wall-clock races deciding
	// whether a delayed message beats a retry timer.
	Sleep func(time.Duration)
	// DropProb, DupProb, CorruptProb, ReorderProb, DelayProb select the
	// per-message fault, drawn in that order.
	DropProb, DupProb, CorruptProb, ReorderProb, DelayProb float64
	// ReorderWindow is how many subsequent messages overtake a reordered
	// one (default 1).
	ReorderWindow int
	// Delay is the latency injected by FaultDelay.
	Delay time.Duration
	// Script lists deterministic faults, matched before any random draw.
	Script []FaultOp
}

// FaultStats counts the faults a FaultEndpoint injected.
type FaultStats struct {
	Sent, Received                                             int
	Dropped, Duplicated, Reordered, Corrupted, Delayed, Resets int
}

// mFaultsInjected counts every fault the injector layer introduces, by
// kind — the ground truth the transport-level retry/fault counters are
// judged against in fault experiments.
var mFaultsInjected = obs.Default().CounterVec("sacha_channel_faults_injected_total",
	"Transport faults injected by FaultEndpoint wrappers, by kind.", "kind")

// held is a reordered message waiting for its release point.
type held struct {
	msg     []byte
	release int // deliver once the direction counter reaches this
}

// FaultEndpoint wraps an Endpoint and injects deterministic, seeded
// transport faults in both directions. It models an unreliable network
// around any transport (the simulated lab link or TCP) without touching
// the wrapped implementation.
//
// Send may be called concurrently with Recv; each direction itself is
// single-caller (the usual endpoint discipline).
type FaultEndpoint struct {
	inner Endpoint
	cfg   FaultConfig
	sleep func(time.Duration)

	mu    sync.Mutex // guards rng, stats, reset
	rng   *rand.Rand
	stats FaultStats
	reset bool

	sendMu   sync.Mutex
	sendIdx  int
	sendHeld []held

	recvMu   sync.Mutex
	recvIdx  int
	recvHeld []held
	pending  [][]byte // ready-to-deliver (duplicates, released reorders)
}

// NewFault wraps inner with the fault injector.
func NewFault(inner Endpoint, cfg FaultConfig) *FaultEndpoint {
	if cfg.ReorderWindow < 1 {
		cfg.ReorderWindow = 1
	}
	src := cfg.Source
	if src == nil {
		src = rand.NewSource(cfg.Seed)
	}
	sleep := cfg.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	return &FaultEndpoint{
		inner: inner,
		cfg:   cfg,
		sleep: sleep,
		rng:   rand.New(src),
	}
}

// Stats returns a snapshot of the injected-fault counters.
func (f *FaultEndpoint) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// pick decides the fault for one message. It consults the script first,
// then the seeded lottery.
func (f *FaultEndpoint) pick(dir Direction, idx int) FaultKind {
	for _, op := range f.cfg.Script {
		if op.Dir == dir && op.Index == idx {
			return op.Kind
		}
	}
	draw := f.rng.Float64()
	switch {
	case draw < f.cfg.DropProb:
		return FaultDrop
	case draw < f.cfg.DropProb+f.cfg.DupProb:
		return FaultDuplicate
	case draw < f.cfg.DropProb+f.cfg.DupProb+f.cfg.CorruptProb:
		return FaultCorrupt
	case draw < f.cfg.DropProb+f.cfg.DupProb+f.cfg.CorruptProb+f.cfg.ReorderProb:
		return FaultReorder
	case draw < f.cfg.DropProb+f.cfg.DupProb+f.cfg.CorruptProb+f.cfg.ReorderProb+f.cfg.DelayProb:
		return FaultDelay
	}
	return FaultNone
}

// corrupt returns a copy of msg with one random bit flipped.
func (f *FaultEndpoint) corrupt(msg []byte) []byte {
	cp := append([]byte(nil), msg...)
	if len(cp) > 0 {
		bit := f.rng.Intn(len(cp) * 8)
		cp[bit/8] ^= 1 << (bit % 8)
	}
	return cp
}

func (f *FaultEndpoint) isReset() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reset
}

func (f *FaultEndpoint) doReset() {
	f.mu.Lock()
	f.reset = true
	f.stats.Resets++
	f.mu.Unlock()
	mFaultsInjected.With(FaultReset.String()).Inc()
	f.inner.Close()
}

// Send passes the message through the fault injector towards the peer.
func (f *FaultEndpoint) Send(msg []byte) error {
	if f.isReset() {
		return ErrReset
	}
	f.sendMu.Lock()
	defer f.sendMu.Unlock()

	idx := f.sendIdx
	f.sendIdx++

	f.mu.Lock()
	kind := f.pick(DirSend, idx)
	f.stats.Sent++
	var corrupted []byte
	if kind == FaultCorrupt {
		corrupted = f.corrupt(msg)
	}
	switch kind {
	case FaultDrop:
		f.stats.Dropped++
	case FaultDuplicate:
		f.stats.Duplicated++
	case FaultReorder:
		f.stats.Reordered++
	case FaultCorrupt:
		f.stats.Corrupted++
	case FaultDelay:
		f.stats.Delayed++
	}
	f.mu.Unlock()
	if kind != FaultNone {
		mFaultsInjected.With(kind.String()).Inc()
	}

	var err error
	switch kind {
	case FaultDrop:
		// vanished on the wire
	case FaultDuplicate:
		if err = f.inner.Send(msg); err == nil {
			err = f.inner.Send(msg)
		}
	case FaultReorder:
		cp := append([]byte(nil), msg...)
		f.sendHeld = append(f.sendHeld, held{msg: cp, release: idx + f.cfg.ReorderWindow})
	case FaultCorrupt:
		err = f.inner.Send(corrupted)
	case FaultDelay:
		f.sleep(f.cfg.Delay)
		err = f.inner.Send(msg)
	case FaultReset:
		f.doReset()
		return ErrReset
	default:
		err = f.inner.Send(msg)
	}
	if err != nil {
		return err
	}
	// Release reordered messages whose window has passed (sendIdx is one
	// past the current message's index, so strict < means "a message after
	// the release point went out").
	rest := f.sendHeld[:0]
	for _, h := range f.sendHeld {
		if h.release < f.sendIdx {
			if sendErr := f.inner.Send(h.msg); sendErr != nil && err == nil {
				err = sendErr
			}
		} else {
			rest = append(rest, h)
		}
	}
	f.sendHeld = rest
	return err
}

// Recv returns the next message from the peer, after the fault injector
// had its way with it.
func (f *FaultEndpoint) Recv() ([]byte, error) { return f.RecvUntil(time.Time{}) }

// RecvUntil is Recv with the deadline passed through to the wrapped
// endpoint.
func (f *FaultEndpoint) RecvUntil(t time.Time) ([]byte, error) {
	f.recvMu.Lock()
	defer f.recvMu.Unlock()
	for {
		if f.isReset() {
			return nil, ErrReset
		}
		if len(f.pending) > 0 {
			msg := f.pending[0]
			f.pending = f.pending[1:]
			return msg, nil
		}
		raw, err := recvUntil(f.inner, t)
		if err != nil {
			return nil, err
		}
		idx := f.recvIdx
		f.recvIdx++

		f.mu.Lock()
		kind := f.pick(DirRecv, idx)
		f.stats.Received++
		var corrupted []byte
		if kind == FaultCorrupt {
			corrupted = f.corrupt(raw)
		}
		switch kind {
		case FaultDrop:
			f.stats.Dropped++
		case FaultDuplicate:
			f.stats.Duplicated++
		case FaultReorder:
			f.stats.Reordered++
		case FaultCorrupt:
			f.stats.Corrupted++
		case FaultDelay:
			f.stats.Delayed++
		}
		f.mu.Unlock()
		if kind != FaultNone {
			mFaultsInjected.With(kind.String()).Inc()
		}

		// Release held messages whose window has passed before deciding
		// this message's fate, so reordered traffic eventually drains.
		rest := f.recvHeld[:0]
		for _, h := range f.recvHeld {
			if h.release <= f.recvIdx {
				f.pending = append(f.pending, h.msg)
			} else {
				rest = append(rest, h)
			}
		}
		f.recvHeld = rest

		switch kind {
		case FaultDrop:
			continue
		case FaultDuplicate:
			f.pending = append(f.pending, append([]byte(nil), raw...))
			return raw, nil
		case FaultReorder:
			f.recvHeld = append(f.recvHeld, held{msg: raw, release: idx + f.cfg.ReorderWindow})
			continue
		case FaultCorrupt:
			return corrupted, nil
		case FaultDelay:
			f.sleep(f.cfg.Delay)
			return raw, nil
		case FaultReset:
			f.doReset()
			return nil, ErrReset
		default:
			return raw, nil
		}
	}
}

// Close closes the wrapped endpoint.
func (f *FaultEndpoint) Close() error { return f.inner.Close() }

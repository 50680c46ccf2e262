package dispatch

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"sacha/internal/attestation"
	"sacha/internal/channel"
	"sacha/internal/core"
	"sacha/internal/fleet"
	"sacha/internal/verifier"
)

// sessionCounter counts open verifier endpoints through
// WrapVerifierChannel: a session opens its endpoint when it starts and
// closes it when it ends, so the open count is the number of sessions
// still driving a device.
type sessionCounter struct {
	mu   sync.Mutex
	open map[uint64]int
	peak map[uint64]int
}

func newSessionCounter() *sessionCounter {
	return &sessionCounter{open: map[uint64]int{}, peak: map[uint64]int{}}
}

// wrap returns the WrapVerifierChannel hook of device id, counting the
// endpoint around inner's wrapping (nil: none).
func (c *sessionCounter) wrap(id uint64, inner func(channel.Endpoint) channel.Endpoint) func(channel.Endpoint) channel.Endpoint {
	return func(ep channel.Endpoint) channel.Endpoint {
		if inner != nil {
			ep = inner(ep)
		}
		c.mu.Lock()
		c.open[id]++
		c.peak[id] = max(c.peak[id], c.open[id])
		c.mu.Unlock()
		// Keep the deadline receive visible, so the session runs exactly
		// as it would unwrapped.
		return &countedEndpoint{UntilEndpoint: ep.(channel.UntilEndpoint), c: c, id: id}
	}
}

// total returns the number of endpoints still open.
func (c *sessionCounter) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, v := range c.open {
		n += v
	}
	return n
}

type countedEndpoint struct {
	channel.UntilEndpoint
	c    *sessionCounter
	id   uint64
	once sync.Once
}

// Close counts the endpoint closed once the wrapped Close returned,
// that is after any handler call in progress.
func (e *countedEndpoint) Close() error {
	err := e.UntilEndpoint.Close()
	e.once.Do(func() {
		e.c.mu.Lock()
		e.c.open[e.id]--
		e.c.mu.Unlock()
	})
	return err
}

// TestSessionNeverOutlivesItsSweep: a member behind a lossy link whose
// retry budget outlasts the per-device deadline is stopped at the
// deadline, so when Sweep returns no session of it is still open, and
// the next sweep never finds a device serving two sessions at once.
// Run it under -race: a session left driving its device while the next
// one starts races on the prover's state.
func TestSessionNeverOutlivesItsSweep(t *testing.T) {
	const (
		lossy   = 2
		timeout = 200 * time.Millisecond
	)
	d, reg := oneShard(t, 3, tinyFactory)
	c := newSessionCounter()
	opts := func(id uint64) core.AttestOptions {
		if id != lossy {
			return core.AttestOptions{WrapVerifierChannel: c.wrap(id, nil)}
		}
		// Half the messages vanish and every command may be re-sent 40
		// times, 30 ms apart: the session needs seconds, the deadline
		// allows 200 ms.
		return core.AttestOptions{
			Opts: verifier.Options{Retry: attestation.RetryPolicy{
				Timeout: 30 * time.Millisecond, MaxRetries: 40,
				Backoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond, Seed: 1,
			}},
			WrapVerifierChannel: c.wrap(id, func(ep channel.Endpoint) channel.Endpoint {
				return channel.NewFault(ep, channel.FaultConfig{DropProb: 0.5, Seed: 7})
			}),
		}
	}
	for sweep := 1; sweep <= 2; sweep++ {
		rep := mustSweep(t, d, reg, fleet.SweepConfig{Concurrency: 2, PerDeviceTimeout: timeout}, opts)
		if n := c.total(); n != 0 {
			t.Fatalf("sweep %d: %d session endpoint(s) still open after Sweep returned", sweep, n)
		}
		if len(rep.Healthy) != 2 || len(rep.Unreachable) != 1 || rep.Unreachable[0] != lossy {
			t.Fatalf("sweep %d: healthy=%v unreachable=%v compromised=%v failed=%v",
				sweep, rep.Healthy, rep.Unreachable, rep.Compromised, rep.Failed)
		}
		for _, r := range rep.Results {
			if r.DeviceID != lossy {
				continue
			}
			if !errors.Is(r.Err, context.DeadlineExceeded) {
				t.Fatalf("sweep %d: lossy member error = %v, want DeadlineExceeded", sweep, r.Err)
			}
			// Stopped within one message of the deadline; the margin
			// absorbs a loaded machine and the race detector.
			if r.Elapsed > timeout+2*time.Second {
				t.Fatalf("sweep %d: lossy member took %v against a %v deadline", sweep, r.Elapsed, timeout)
			}
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, p := range c.peak {
		if p > 1 {
			t.Fatalf("device %d served %d sessions at once", id, p)
		}
	}
}

// TestSweepSessionsSpawnNoGoroutine: a sweep runs each session on the
// worker that took the device. With one worker over a zero-delay link
// the process holds exactly one goroutine more than before the sweep,
// at every point of every session.
func TestSweepSessionsSpawnNoGoroutine(t *testing.T) {
	d, reg := oneShard(t, 3, tinyFactory)
	// Let goroutines of earlier tests finish before taking the baseline.
	baseline := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(10 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n == baseline {
			break
		}
		baseline = n
	}
	var mu sync.Mutex
	var samples []int
	sample := func(m []byte) []byte {
		n := runtime.NumGoroutine()
		mu.Lock()
		samples = append(samples, n)
		mu.Unlock()
		return m
	}
	rep := mustSweep(t, d, reg, fleet.SweepConfig{Concurrency: 1}, func(uint64) core.AttestOptions {
		return core.AttestOptions{WrapVerifierChannel: func(ep channel.Endpoint) channel.Endpoint {
			sample(nil)
			return &channel.Tap{Inner: ep, OnSend: sample, OnRecv: sample}
		}}
	})
	if len(rep.Healthy) != 3 {
		t.Fatalf("healthy=%v unreachable=%v failed=%v", rep.Healthy, rep.Unreachable, rep.Failed)
	}
	if len(samples) == 0 {
		t.Fatal("the hook never ran")
	}
	for _, n := range samples {
		if n != baseline+1 {
			t.Fatalf("%d goroutines during a session, want %d (baseline %d + the worker)", n, baseline+1, baseline)
		}
	}
}

package channel

import (
	"errors"
	"io"
	"runtime"
	"testing"
	"time"
)

// TestDelayEndpointPipelinesConcurrently is the property that makes
// DelayEndpoint an honest model for pipelining benchmarks: n messages
// sent back-to-back age concurrently, so a windowed exchange completes in
// roughly one round trip — not n of them. (FaultDelay would serialise.)
func TestDelayEndpointPipelinesConcurrently(t *testing.T) {
	const oneWay = 30 * time.Millisecond
	d := NewDelayEndpoint(NewInline((&peer{echo: true}).handle, SimConfig{}), oneWay)
	defer d.Close()

	const n = 8
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := d.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		msg, err := d.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if len(msg) != 1 || msg[0] != byte(i) {
			t.Fatalf("echo %d came back as %v (ordering broken)", i, msg)
		}
	}
	elapsed := time.Since(start)

	if elapsed < 2*oneWay {
		t.Fatalf("pipelined burst finished in %v, faster than one round trip %v", elapsed, 2*oneWay)
	}
	// A serialising implementation would need n round trips; allow ample
	// scheduler slack while still catching serialisation.
	if limit := time.Duration(n) * oneWay; elapsed > limit {
		t.Fatalf("pipelined burst of %d took %v — messages are not aging concurrently (serial would be %v)",
			n, elapsed, 2*time.Duration(n)*oneWay)
	}
}

// TestDelayEndpointLockstepPaysRoundTrips: the complementary bound — a
// lockstep caller pays the full round trip per exchange, which is exactly
// the cost the windowed session is designed to hide.
func TestDelayEndpointLockstepPaysRoundTrips(t *testing.T) {
	const oneWay = 10 * time.Millisecond
	d := NewDelayEndpoint(NewInline((&peer{echo: true}).handle, SimConfig{}), oneWay)
	defer d.Close()

	const n = 4
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := d.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed, min := time.Since(start), time.Duration(n)*2*oneWay; elapsed < min {
		t.Fatalf("%d lockstep exchanges took %v, under the %v latency floor", n, elapsed, min)
	}
}

// TestDelayEndpointClose: a closed wrapper delivers EOF to receivers and
// rejects senders, and the wrapped link is closed too.
func TestDelayEndpointClose(t *testing.T) {
	inner := NewInline((&peer{echo: true}).handle, SimConfig{})
	d := NewDelayEndpoint(inner, time.Millisecond)
	done := make(chan error, 1)
	go func() {
		_, err := d.Recv()
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	d.Close()
	select {
	case err := <-done:
		if err != io.EOF {
			t.Fatalf("Recv after close: %v, want EOF", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not return after close")
	}
	if err := d.Send([]byte{1}); err == nil {
		t.Fatal("Send after close succeeded")
	}
	if err := inner.Send([]byte{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("wrapped link after close: %v, want ErrClosed", err)
	}
}

// TestDelayEndpointDeliversError: the wrapped link failing (its handler
// errs) reaches the receiver through the delay queue, after the
// responses queued before it.
func TestDelayEndpointDeliversError(t *testing.T) {
	calls := 0
	d := NewDelayEndpoint(NewInline(func(req []byte) ([][]byte, error) {
		if calls++; calls > 1 {
			return nil, errors.New("prover gone")
		}
		return [][]byte{{42}}, nil
	}, SimConfig{}), time.Millisecond)
	defer d.Close()
	for i := 0; i < 2; i++ {
		if err := d.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	msg, err := d.Recv()
	if err != nil || len(msg) != 1 {
		t.Fatalf("first Recv: %v %v", msg, err)
	}
	if _, err := d.Recv(); err == nil {
		t.Fatal("peer-close did not surface")
	}
}

// TestDelayEndpointRecvUntil: a deadline before the response's due time
// returns ErrTimeout, the response still arrives one round trip after
// its request, and a Send on another goroutine wakes a blocked Recv.
func TestDelayEndpointRecvUntil(t *testing.T) {
	const oneWay = 10 * time.Millisecond
	d := NewDelayEndpoint(NewInline((&peer{echo: true}).handle, SimConfig{}), oneWay)
	defer d.Close()
	start := time.Now()
	d.Send([]byte("a"))
	if _, err := d.RecvUntil(start.Add(oneWay)); err != ErrTimeout {
		t.Fatalf("RecvUntil before the round trip: %v, want ErrTimeout", err)
	}
	msg, err := d.RecvUntil(start.Add(time.Second))
	if err != nil || string(msg) != "a" {
		t.Fatalf("RecvUntil: %q %v", msg, err)
	}
	if rtt := time.Since(start); rtt < 2*oneWay {
		t.Fatalf("response after %v, under the %v round trip", rtt, 2*oneWay)
	}

	got := make(chan []byte)
	go func() {
		msg, _ := d.Recv()
		got <- msg
	}()
	time.Sleep(5 * time.Millisecond) // let Recv block on the empty queue
	d.Send([]byte("b"))
	select {
	case msg := <-got:
		if string(msg) != "b" {
			t.Fatalf("woken Recv got %q", msg)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a Send did not wake the blocked Recv")
	}
}

// recvOnly hides every method but the Endpoint ones, as a caller's
// wrapper does.
type recvOnly struct{ Endpoint }

// TestWithRecvUntilAdapter: a Recv-only endpoint gets a deadline
// receive from one goroutine, which is gone once the caller released
// the adapter and closed the endpoint; a native one comes back as is.
func TestWithRecvUntilAdapter(t *testing.T) {
	d := NewDelayEndpoint(NewInline((&peer{echo: true}).handle, SimConfig{}), 5*time.Millisecond)
	if u, _ := WithRecvUntil(&Tap{Inner: d}); u.(*Tap).Inner != d {
		t.Fatal("a Tap around a DelayEndpoint was adapted")
	}
	before := runtime.NumGoroutine()
	u, release := WithRecvUntil(recvOnly{d})
	if _, ok := u.(*recvPump); !ok {
		t.Fatalf("a Recv-only endpoint came back as %T", u)
	}
	if _, err := u.RecvUntil(time.Now().Add(time.Millisecond)); err != ErrTimeout {
		t.Fatalf("RecvUntil with nothing sent: %v, want ErrTimeout", err)
	}
	u.Send([]byte("x"))
	if msg, err := u.RecvUntil(time.Now().Add(time.Second)); err != nil || string(msg) != "x" {
		t.Fatalf("RecvUntil: %q %v", msg, err)
	}
	release()
	u.Close()
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 200 {
			t.Fatalf("%d goroutines after release and Close, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

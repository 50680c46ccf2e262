package channel

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"sacha/internal/ethsim"
	"sacha/internal/sim"
)

var inlineEth = SimConfig{Ethernet: true, AddrA: ethsim.MAC{2, 0, 0, 0, 0, 0xA}, AddrB: ethsim.MAC{2, 0, 0, 0, 0, 0xB}}

// echoN answers a request whose first byte is n with n responses
// "<req>:<i>", built in one reused buffer as a device handler does.
func echoN() Handler {
	var buf []byte
	var out [][]byte
	return func(req []byte) ([][]byte, error) {
		buf, out = buf[:0], out[:0]
		n := 0
		if len(req) > 0 {
			n = int(req[0])
		}
		for i := 0; i < n; i++ {
			start := len(buf)
			buf = fmt.Appendf(buf, "%s:%d", req, i)
			out = append(out, buf[start:])
		}
		return out, nil
	}
}

func TestInlineDelivery(t *testing.T) {
	for _, cfg := range []SimConfig{{}, inlineEth} {
		t.Run(fmt.Sprintf("ethernet=%v", cfg.Ethernet), func(t *testing.T) {
			ep := NewInline(echoN(), cfg)
			reqs := [][]byte{{0, 'a'}, {2, 'b'}, {1, 'c'}, {3, 'd'}}
			for _, r := range reqs {
				if err := ep.Send(r); err != nil {
					t.Fatal(err)
				}
			}
			var got [][]byte
			for i := 0; i < 6; i++ {
				msg, err := ep.Recv()
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, msg)
			}
			// Every response owns its memory although the handler reused
			// one buffer for all of them.
			var want [][]byte
			for _, r := range reqs {
				for i := 0; i < int(r[0]); i++ {
					want = append(want, fmt.Appendf(nil, "%s:%d", r, i))
				}
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("response %d = %q, want %q", i, got[i], want[i])
				}
			}
			ep.Close()
			if _, err := ep.Recv(); err != io.EOF {
				t.Fatalf("Recv after Close: %v, want io.EOF", err)
			}
			if err := ep.Send([]byte{1}); !errors.Is(err, ErrClosed) {
				t.Fatalf("Send after Close: %v, want ErrClosed", err)
			}
		})
	}
}

// TestInlineTimelineCharges: in Ethernet mode too, the link charges
// wire time per message in both directions — the payload's wire size,
// not the frame's — and latency per request.
func TestInlineTimelineCharges(t *testing.T) {
	reqs := [][]byte{bytes.Repeat([]byte{2}, 328), {0}, {1, 7}, {3}}
	cfg := inlineEth
	cfg.MessageLatency = 100 * time.Microsecond
	cfg.Timeline = sim.NewTimeline()
	want := sim.NewTimeline()
	h := echoN()
	ep := NewInline(echoN(), cfg)
	for _, r := range reqs {
		want.Add("wire", ethsim.WireTime(len(r)))
		want.Add("latency", cfg.MessageLatency)
		resps, _ := h(r)
		for _, resp := range resps {
			want.Add("wire", ethsim.WireTime(len(resp)))
		}
		if err := ep.Send(r); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := cfg.Timeline.String(), want.String(); got != want {
		t.Fatalf("inline timeline %q, want %q", got, want)
	}
	if got := cfg.Timeline.Tag("latency"); got != time.Duration(len(reqs))*cfg.MessageLatency {
		t.Fatalf("latency = %v, want one charge per request", got)
	}
}

// TestInlineHandlerErrorClosesLink: a handler error closes the link —
// queued responses still drain, then Recv reports io.EOF, Send
// ErrClosed, and Err the handler's error.
func TestInlineHandlerErrorClosesLink(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	ep := NewInline(func(req []byte) ([][]byte, error) {
		calls++
		if calls == 2 {
			return nil, boom
		}
		return [][]byte{[]byte("ok")}, nil
	}, inlineEth)
	if err := ep.Send([]byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := ep.Send([]byte("2")); err != nil {
		t.Fatalf("Send that failed the handler: %v, want nil (the message was delivered)", err)
	}
	if err := ep.Send([]byte("3")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after handler error: %v, want ErrClosed", err)
	}
	if msg, err := ep.Recv(); err != nil || string(msg) != "ok" {
		t.Fatalf("queued response lost: %q %v", msg, err)
	}
	if _, err := ep.Recv(); err != io.EOF {
		t.Fatalf("Recv after handler error: %v, want io.EOF", err)
	}
	if !errors.Is(ep.Err(), boom) || calls != 2 {
		t.Fatalf("Err() = %v after %d calls, want boom after 2", ep.Err(), calls)
	}
}

// TestInlineFramingBounds: a request beyond the Ethernet MTU is refused
// before the handler runs; a response beyond it fails the link.
func TestInlineFramingBounds(t *testing.T) {
	called := false
	ep := NewInline(func([]byte) ([][]byte, error) {
		called = true
		return [][]byte{make([]byte, ethsim.MaxPayload+1)}, nil
	}, inlineEth)
	if err := ep.Send(make([]byte, ethsim.MaxPayload+1)); err == nil || called {
		t.Fatalf("jumbo request: err %v, handler called %v", err, called)
	}
	if err := ep.Send([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Recv(); err != io.EOF || ep.Err() == nil {
		t.Fatalf("jumbo response: Recv %v, Err %v; want io.EOF and an MTU error", err, ep.Err())
	}
}

// TestInlineRecvWaitsForSend: a Recv on another goroutine blocks until a
// later Send queues a response, and Close wakes a blocked Recv.
func TestInlineRecvWaitsForSend(t *testing.T) {
	ep := NewInline(echoN(), inlineEth)
	got := make(chan []byte)
	go func() {
		for {
			msg, err := ep.Recv()
			if err != nil {
				close(got)
				return
			}
			got <- msg
		}
	}()
	select {
	case msg := <-got:
		t.Fatalf("Recv returned %q before any Send", msg)
	case <-time.After(20 * time.Millisecond):
	}
	if err := ep.Send([]byte{1, 'x'}); err != nil {
		t.Fatal(err)
	}
	if msg := <-got; !bytes.Equal(msg, []byte("\x01x:0")) {
		t.Fatalf("got %q", msg)
	}
	ep.Close()
	select {
	case _, open := <-got:
		if open {
			t.Fatal("message after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not wake the blocked Recv")
	}
}

// TestInlineCloseWaitsForHandler: Close returns only after a handler
// call in progress finished, and the handler never runs again.
func TestInlineCloseWaitsForHandler(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	running := false
	ep := NewInline(func([]byte) ([][]byte, error) {
		running = true
		close(entered)
		<-release
		running = false
		return nil, nil
	}, SimConfig{})
	go ep.Send([]byte("x"))
	<-entered
	closed := make(chan struct{})
	go func() {
		ep.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while the handler was running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-closed
	if running {
		t.Fatal("handler still running after Close")
	}
	if err := ep.Send([]byte("y")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after Close: %v, want ErrClosed", err)
	}
}

// TestInlineUnderDelayEndpoint: the DelayEndpoint drives the inline
// link from the caller's goroutine, in Ethernet mode, and hands every
// response over in order.
func TestInlineUnderDelayEndpoint(t *testing.T) {
	d := NewDelayEndpoint(NewInline(echoN(), inlineEth), time.Millisecond)
	defer d.Close()
	for i := byte(0); i < 20; i++ {
		if err := d.Send([]byte{1, i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := byte(0); i < 20; i++ {
		msg, err := d.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Appendf(nil, "%s:0", []byte{1, i}); !bytes.Equal(msg, want) {
			t.Fatalf("message %d = %q, want %q", i, msg, want)
		}
	}
}

// TestInlineExchangeAllocs: an Ethernet exchange allocates only the
// response frame that changes owner at Recv; the request is framed into
// the endpoint's reused buffer.
func TestInlineExchangeAllocs(t *testing.T) {
	resp := [][]byte{make([]byte, 329)}
	ep := NewInline(func([]byte) ([][]byte, error) { return resp, nil }, inlineEth)
	req := make([]byte, 9)
	ep.Send(req) // size the request buffer
	ep.Recv()
	a := testing.AllocsPerRun(200, func() {
		ep.Send(req)
		ep.Recv()
	})
	if a != 1 {
		t.Fatalf("%.1f allocations per exchange, want 1 (the response frame)", a)
	}
}

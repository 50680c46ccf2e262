package channel

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"sacha/internal/ethsim"
	"sacha/internal/sim"
)

// peer is a Handler that keeps a copy of every request it is handed and,
// with echo set, answers each with the request itself.
type peer struct {
	got  [][]byte
	echo bool
}

func (p *peer) handle(req []byte) ([][]byte, error) {
	p.got = append(p.got, bytes.Clone(req))
	if p.echo {
		return [][]byte{req}, nil
	}
	return nil, nil
}

// TestInlineRequestsInOrder: the handler sees the requests in the order
// they were sent, and its answers come back in the same order.
func TestInlineRequestsInOrder(t *testing.T) {
	p := &peer{echo: true}
	ep := NewInline(p.handle, SimConfig{})
	msgs := [][]byte{[]byte("one"), []byte("two"), []byte("three")}
	for _, m := range msgs {
		if err := ep.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		if !bytes.Equal(p.got[i], want) {
			t.Fatalf("handler saw %q, want %q", p.got[i], want)
		}
		got, err := ep.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("got %q want %q", got, want)
		}
	}
}

// TestInlineCloseDrainsThenEOF: responses queued before Close still
// arrive; then Recv reports io.EOF and Send refuses.
func TestInlineCloseDrainsThenEOF(t *testing.T) {
	ep := NewInline((&peer{echo: true}).handle, SimConfig{})
	ep.Send([]byte("last"))
	ep.Close()
	if got, err := ep.Recv(); err != nil || string(got) != "last" {
		t.Fatalf("pending message lost: %q %v", got, err)
	}
	if _, err := ep.Recv(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
	if err := ep.Send([]byte("x")); err == nil {
		t.Fatal("send on closed channel accepted")
	}
}

// TestInlineNoAliasing: a response the handler built from the request
// does not alias the sender's buffer.
func TestInlineNoAliasing(t *testing.T) {
	ep := NewInline((&peer{echo: true}).handle, SimConfig{})
	buf := []byte("mutate-me")
	ep.Send(buf)
	buf[0] = 'X'
	got, _ := ep.Recv()
	if string(got) != "mutate-me" {
		t.Fatal("Send aliases caller buffer")
	}
}

// TestQueueCapacityBounded: the FIFO pops by head index and reuses its
// backing array, so a long alternating push/pop stream — with or
// without a standing backlog — never grows it.
func TestQueueCapacityBounded(t *testing.T) {
	for _, backlog := range []int{0, 3} {
		q := newQueue()
		for i := 0; i < backlog; i++ {
			q.push(delivery{msg: []byte{byte(i)}})
		}
		for i := 0; i < 10000; i++ {
			if !q.push(delivery{msg: []byte{byte(backlog + i)}}) {
				t.Fatal("push on an open queue refused")
			}
			if v, err := q.pop(time.Time{}); err != nil || v[0] != byte(i) {
				t.Fatalf("pop %d = %v, %v; want FIFO order", i, v, err)
			}
		}
		if c := cap(q.items); c > 2*backlog+8 {
			t.Fatalf("backlog %d: backing array grew to %d after 10000 push/pop pairs", backlog, c)
		}
	}
}

// TestQueueCloseWakesBlockedPop: closing the link wakes a receiver
// blocked on an empty queue with io.EOF, and a later send reports
// ErrClosed.
func TestQueueCloseWakesBlockedPop(t *testing.T) {
	ep := NewInline((&peer{}).handle, SimConfig{})
	got := make(chan error, 1)
	go func() {
		_, err := ep.Recv()
		got <- err
	}()
	time.Sleep(10 * time.Millisecond) // let Recv block
	ep.Close()
	select {
	case err := <-got:
		if err != io.EOF {
			t.Fatalf("blocked Recv woke with %v, want io.EOF", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("close did not wake the blocked Recv")
	}
	if err := ep.Send([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v, want ErrClosed", err)
	}
}

// TestQueueDueAndDeadline: a delivery is held until its due time, a pop
// on a queue with nothing due returns ErrTimeout at its deadline, and a
// delivery already due is handed over even past the deadline.
func TestQueueDueAndDeadline(t *testing.T) {
	q := newQueue()
	start := time.Now()
	if _, err := q.pop(start.Add(5 * time.Millisecond)); err != ErrTimeout {
		t.Fatalf("pop on an empty queue: %v, want ErrTimeout", err)
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Fatalf("ErrTimeout after %v, before the deadline", d)
	}
	due := time.Now().Add(20 * time.Millisecond)
	q.push(delivery{msg: []byte("late"), due: due})
	if _, err := q.pop(time.Now().Add(5 * time.Millisecond)); err != ErrTimeout {
		t.Fatalf("pop before the due time: %v, want ErrTimeout", err)
	}
	msg, err := q.pop(time.Time{})
	if err != nil || string(msg) != "late" || time.Now().Before(due) {
		t.Fatalf("pop = %q %v at %v before due", msg, err, due.Sub(time.Now()))
	}
	q.push(delivery{msg: []byte("ready")})
	if msg, err := q.pop(start); err != nil || string(msg) != "ready" {
		t.Fatalf("pop past the deadline with a delivery due: %q %v", msg, err)
	}
}

// TestInlineTimelineAccounting: the link charges wire time for every
// message both ways and MessageLatency once per request.
func TestInlineTimelineAccounting(t *testing.T) {
	tl := sim.NewTimeline()
	ep := NewInline(func([]byte) ([][]byte, error) { return [][]byte{make([]byte, 17)}, nil },
		SimConfig{Timeline: tl, MessageLatency: 100 * time.Microsecond})
	ep.Send(make([]byte, 328))
	// wire: WireBytes(328)=366, WireBytes(17)=55 → (366+55)*8 ns.
	wantWire := time.Duration((366+55)*8) * time.Nanosecond
	if got := tl.Tag("wire"); got != wantWire {
		t.Fatalf("wire = %v, want %v", got, wantWire)
	}
	// Latency is per command: only the request charges it.
	if got := tl.Tag("latency"); got != 100*time.Microsecond {
		t.Fatalf("latency = %v", got)
	}
}

// TestInlineConcurrentSendRecv: one goroutine sends while another
// receives, as under a Recv-only wrapper's adapter; every echo arrives in
// order and the timeline is charged.
func TestInlineConcurrentSendRecv(t *testing.T) {
	tl := sim.NewTimeline()
	ep := NewInline((&peer{echo: true}).handle, SimConfig{Timeline: tl, MessageLatency: time.Microsecond})
	const n = 500
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			got, err := ep.Recv()
			if want := fmt.Sprintf("msg-%d", i); err != nil || string(got) != want {
				t.Errorf("echo %d: %q %v", i, got, err)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		if err := ep.Send([]byte(fmt.Sprintf("msg-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if tl.Total() == 0 {
		t.Fatal("timeline not charged")
	}
}

func TestTapRewriteAndDrop(t *testing.T) {
	p := &peer{echo: true}
	tap := &Tap{
		Inner: NewInline(p.handle, SimConfig{}),
		OnSend: func(m []byte) []byte {
			if string(m) == "drop" {
				return nil
			}
			return append([]byte("mitm:"), m...)
		},
	}
	tap.Send([]byte("drop"))
	tap.Send([]byte("hello"))
	if len(p.got) != 1 || string(p.got[0]) != "mitm:hello" {
		t.Fatalf("got %q", p.got)
	}
	tap.Inner.Recv()

	// OnRecv dropping skips to the next message.
	recvTap := &Tap{
		Inner: NewInline(p.handle, SimConfig{}),
		OnRecv: func(m []byte) []byte {
			if string(m) == "skip" {
				return nil
			}
			return m
		},
	}
	recvTap.Send([]byte("skip"))
	recvTap.Send([]byte("keep"))
	got, err := recvTap.Recv()
	if err != nil || string(got) != "keep" {
		t.Fatalf("got %q %v", got, err)
	}
	recvTap.Close()
}

func TestEthernetFraming(t *testing.T) {
	cfg := SimConfig{
		Ethernet: true,
		AddrA:    [6]byte{2, 0, 0, 0, 0, 0xA},
		AddrB:    [6]byte{2, 0, 0, 0, 0, 0xB},
	}
	ep := NewInline(func(req []byte) ([][]byte, error) {
		if string(req) != "framed payload" {
			return nil, fmt.Errorf("payload %q", req)
		}
		return [][]byte{[]byte("pong")}, nil
	}, cfg)
	if err := ep.Send([]byte("framed payload")); err != nil {
		t.Fatal(err)
	}
	// Reverse direction too.
	if got, err := ep.Recv(); err != nil || string(got) != "pong" {
		t.Fatalf("reverse framing broken: %q %v (handler: %v)", got, err, ep.Err())
	}
}

func TestEthernetFCSDetectsCorruption(t *testing.T) {
	cfg := SimConfig{Ethernet: true, AddrA: [6]byte{1}, AddrB: [6]byte{2}}
	ep := NewInline((&peer{}).handle, cfg)
	// A bit flips on the wire: build the frame exactly as the endpoint
	// does, corrupt it, and inject it into the raw queue.
	frame := &ethsim.Frame{Dst: cfg.AddrA, Src: cfg.AddrB, EtherType: ethsim.EtherTypeSACHa, Payload: []byte("hello")}
	wire, err := frame.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	wire[len(wire)/2] ^= 0x01
	if !ep.in.push(delivery{msg: wire}) {
		t.Fatal("push on an open queue refused")
	}
	if _, err := ep.Recv(); err == nil {
		t.Fatal("corrupted frame passed the FCS check")
	}
}

func TestEthernetRejectsForeignFrames(t *testing.T) {
	cfg := SimConfig{Ethernet: true, AddrA: [6]byte{1}, AddrB: [6]byte{2}}
	ep := NewInline((&peer{}).handle, cfg)
	// Wrong ethertype.
	f := &ethsim.Frame{Dst: cfg.AddrA, Src: cfg.AddrB, EtherType: 0x0800, Payload: []byte("ip?")}
	wire, _ := f.Marshal()
	ep.in.push(delivery{msg: wire})
	if _, err := ep.Recv(); err == nil {
		t.Fatal("foreign ethertype accepted")
	}
	// Wrong destination.
	f = &ethsim.Frame{Dst: [6]byte{9, 9, 9, 9, 9, 9}, Src: cfg.AddrB, EtherType: ethsim.EtherTypeSACHa}
	wire, _ = f.Marshal()
	ep.in.push(delivery{msg: wire})
	if _, err := ep.Recv(); err == nil {
		t.Fatal("misaddressed frame accepted")
	}
}

func TestTCPRoundTrip(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		ep := NewTCP(conn)
		defer ep.Close()
		for {
			msg, err := ep.Recv()
			if err == io.EOF {
				done <- nil
				return
			}
			if err != nil {
				done <- err
				return
			}
			if err := ep.Send(append([]byte("echo:"), msg...)); err != nil {
				done <- err
				return
			}
		}
	}()

	ep, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		want := bytes.Repeat([]byte{byte(i)}, i*100+1)
		if err := ep.Send(want); err != nil {
			t.Fatal(err)
		}
		got, err := ep.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, append([]byte("echo:"), want...)) {
			t.Fatalf("echo %d mismatch", i)
		}
	}
	ep.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestTCPMessageLimit(t *testing.T) {
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			NewTCP(conn).Recv() // just hold it open briefly
			conn.Close()
		}
	}()
	ep, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if err := ep.Send(make([]byte, maxTCPMessage+1)); err == nil {
		t.Fatal("oversized message accepted")
	}
}

func TestDialError(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

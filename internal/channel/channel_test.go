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

func TestSimPairDelivery(t *testing.T) {
	a, b := SimPair(SimConfig{})
	msgs := [][]byte{[]byte("one"), []byte("two"), []byte("three")}
	for _, m := range msgs {
		if err := a.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range msgs {
		got, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("got %q want %q", got, want)
		}
	}
	// Reverse direction.
	if err := b.Send([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	if got, _ := a.Recv(); string(got) != "pong" {
		t.Fatal("reverse direction broken")
	}
}

func TestSimPairCloseEOF(t *testing.T) {
	a, b := SimPair(SimConfig{})
	a.Send([]byte("last"))
	a.Close()
	if got, err := b.Recv(); err != nil || string(got) != "last" {
		t.Fatalf("pending message lost: %q %v", got, err)
	}
	if _, err := b.Recv(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
	if err := b.Send([]byte("x")); err == nil {
		t.Fatal("send on closed channel accepted")
	}
}

func TestSimPairNoAliasing(t *testing.T) {
	a, b := SimPair(SimConfig{})
	buf := []byte("mutate-me")
	a.Send(buf)
	buf[0] = 'X'
	got, _ := b.Recv()
	if string(got) != "mutate-me" {
		t.Fatal("Send aliases caller buffer")
	}
}

// TestQueueCapacityBounded: the FIFO pops by head index and reuses its
// backing array, so a long alternating push/pop stream — with or
// without a standing backlog — never grows it.
func TestQueueCapacityBounded(t *testing.T) {
	for _, backlog := range []int{0, 3} {
		q := newQueue[int]()
		for i := 0; i < backlog; i++ {
			q.push(i)
		}
		for i := 0; i < 10000; i++ {
			if !q.push(backlog + i) {
				t.Fatal("push on an open queue refused")
			}
			if v, ok := q.pop(); !ok || v != i {
				t.Fatalf("pop %d = %d, %v; want FIFO order", i, v, ok)
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
	a, b := SimPair(SimConfig{})
	got := make(chan error, 1)
	go func() {
		_, err := b.Recv()
		got <- err
	}()
	time.Sleep(10 * time.Millisecond) // let Recv block
	a.Close()
	select {
	case err := <-got:
		if err != io.EOF {
			t.Fatalf("blocked Recv woke with %v, want io.EOF", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("close did not wake the blocked Recv")
	}
	if err := b.Send([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v, want ErrClosed", err)
	}
}

func TestSimPairTimelineAccounting(t *testing.T) {
	tl := sim.NewTimeline()
	a, b := SimPair(SimConfig{Timeline: tl, MessageLatency: 100 * time.Microsecond})
	a.Send(make([]byte, 328))
	b.Send(make([]byte, 17))
	// wire: WireBytes(328)=366, WireBytes(17)=55 → (366+55)*8 ns.
	wantWire := time.Duration((366+55)*8) * time.Nanosecond
	if got := tl.Tag("wire"); got != wantWire {
		t.Fatalf("wire = %v, want %v", got, wantWire)
	}
	// Latency is per command: only the initiator (a) charges it.
	if got := tl.Tag("latency"); got != 100*time.Microsecond {
		t.Fatalf("latency = %v", got)
	}
}

func TestSimPairConcurrent(t *testing.T) {
	tl := sim.NewTimeline()
	a, b := SimPair(SimConfig{Timeline: tl, MessageLatency: time.Microsecond})
	const n = 500
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			msg, err := b.Recv()
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			b.Send(msg) // echo
		}
	}()
	for i := 0; i < n; i++ {
		want := []byte(fmt.Sprintf("msg-%d", i))
		if err := a.Send(want); err != nil {
			t.Fatal(err)
		}
		got, err := a.Recv()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("echo %d: %q %v", i, got, err)
		}
	}
	wg.Wait()
	if tl.Total() == 0 {
		t.Fatal("timeline not charged")
	}
}

func TestTapRewriteAndDrop(t *testing.T) {
	a, b := SimPair(SimConfig{})
	tap := &Tap{
		Inner: a,
		OnSend: func(m []byte) []byte {
			if string(m) == "drop" {
				return nil
			}
			return append([]byte("mitm:"), m...)
		},
	}
	tap.Send([]byte("drop"))
	tap.Send([]byte("hello"))
	got, _ := b.Recv()
	if string(got) != "mitm:hello" {
		t.Fatalf("got %q", got)
	}

	// OnRecv dropping skips to the next message.
	recvTap := &Tap{
		Inner: b,
		OnRecv: func(m []byte) []byte {
			if string(m) == "skip" {
				return nil
			}
			return m
		},
	}
	a.Send([]byte("skip"))
	a.Send([]byte("keep"))
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
	a, b := SimPair(cfg)
	if err := a.Send([]byte("framed payload")); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "framed payload" {
		t.Fatalf("payload %q", got)
	}
	// Reverse direction too.
	b.Send([]byte("pong"))
	if got, _ := a.Recv(); string(got) != "pong" {
		t.Fatal("reverse framing broken")
	}
}

func TestEthernetFCSDetectsCorruption(t *testing.T) {
	cfg := SimConfig{Ethernet: true, AddrA: [6]byte{1}, AddrB: [6]byte{2}}
	a, b := SimPair(cfg)
	// A bit flips on the wire: build the frame exactly as the endpoint
	// does, corrupt it, and inject it into the raw queue.
	frame := &ethsim.Frame{Dst: a.dst, Src: a.src, EtherType: ethsim.EtherTypeSACHa, Payload: []byte("hello")}
	wire, err := frame.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	wire[len(wire)/2] ^= 0x01
	if !a.out.push(wire) {
		t.Fatal("push on an open queue refused")
	}
	if _, err := b.Recv(); err == nil {
		t.Fatal("corrupted frame passed the FCS check")
	}
}

func TestEthernetRejectsForeignFrames(t *testing.T) {
	cfg := SimConfig{Ethernet: true, AddrA: [6]byte{1}, AddrB: [6]byte{2}}
	a, b := SimPair(cfg)
	// Wrong ethertype.
	f := &ethsim.Frame{Dst: b.src, Src: a.src, EtherType: 0x0800, Payload: []byte("ip?")}
	wire, _ := f.Marshal()
	a.out.push(wire)
	if _, err := b.Recv(); err == nil {
		t.Fatal("foreign ethertype accepted")
	}
	// Wrong destination.
	f = &ethsim.Frame{Dst: [6]byte{9, 9, 9, 9, 9, 9}, Src: a.src, EtherType: ethsim.EtherTypeSACHa}
	wire, _ = f.Marshal()
	a.out.push(wire)
	if _, err := b.Recv(); err == nil {
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

package channel

import (
	"errors"
	"net"
	"testing"
	"time"
)

// tcpPair connects two TCPEndpoints over loopback.
func tcpPair(t *testing.T) (client, server *TCPEndpoint) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- conn
	}()
	client, err = Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn, ok := <-accepted
	if !ok {
		t.Fatal("accept failed")
	}
	server = NewTCP(conn)
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

func TestTCPRejectsZeroLengthHeader(t *testing.T) {
	client, server := tcpPair(t)
	// A desynchronised peer writes an all-zero length header.
	if _, err := server.conn.Write([]byte{0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Recv(); !errors.Is(err, ErrZeroLength) {
		t.Fatalf("got %v, want ErrZeroLength", err)
	}
}

func TestTCPRejectsEmptySend(t *testing.T) {
	client, _ := tcpPair(t)
	if err := client.Send(nil); !errors.Is(err, ErrZeroLength) {
		t.Fatalf("got %v, want ErrZeroLength", err)
	}
}

func TestTCPErrClosedAfterClose(t *testing.T) {
	client, server := tcpPair(t)
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if err := client.Send([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v, want ErrClosed", err)
	}
	if _, err := client.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("recv after close: %v, want ErrClosed", err)
	}
	// The peer's blocked Recv observes the remote close as EOF, not
	// ErrClosed (it did not close locally).
	if _, err := server.Recv(); errors.Is(err, ErrClosed) {
		t.Fatalf("peer saw local-close error: %v", err)
	}
}

func TestTCPCloseUnblocksRecv(t *testing.T) {
	client, _ := tcpPair(t)
	errc := make(chan error, 1)
	go func() {
		_, err := client.Recv()
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond) // let Recv block on the socket
	client.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("got %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not unblock Recv")
	}
}

func TestDeadlineEndpointRecvTimeout(t *testing.T) {
	client, _ := tcpPair(t)
	dep := NewDeadline(client, 0, 30*time.Millisecond)
	start := time.Now()
	_, err := dep.Recv()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("timeout fired after %v", d)
	}
}

func TestDeadlineEndpointRecoversAfterTimeout(t *testing.T) {
	client, server := tcpPair(t)
	dep := NewDeadline(client, 100*time.Millisecond, 30*time.Millisecond)
	if _, err := dep.Recv(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
	// The connection stays usable: a late message still arrives.
	if err := server.Send([]byte("late")); err != nil {
		t.Fatal(err)
	}
	got, err := dep.Recv()
	if err != nil || string(got) != "late" {
		t.Fatalf("post-timeout recv: %q %v", got, err)
	}
	if err := dep.Send([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	if got, err := server.Recv(); err != nil || string(got) != "ok" {
		t.Fatalf("post-timeout send: %q %v", got, err)
	}
}

func TestFaultOverTCP(t *testing.T) {
	client, server := tcpPair(t)
	f := NewFault(client, FaultConfig{Script: []FaultOp{
		{Dir: DirSend, Index: 0, Kind: FaultDrop},
		{Dir: DirSend, Index: 2, Kind: FaultDuplicate},
	}})
	for _, m := range []string{"a", "b", "c"} {
		if err := f.Send([]byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"b", "c", "c"}
	for i, w := range want {
		got, err := server.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if string(got) != w {
			t.Fatalf("message %d = %q, want %q", i, got, w)
		}
	}
}

func TestFaultResetOverTCP(t *testing.T) {
	client, server := tcpPair(t)
	f := NewFault(client, FaultConfig{Script: []FaultOp{{Dir: DirSend, Index: 1, Kind: FaultReset}}})
	if err := f.Send([]byte("fine")); err != nil {
		t.Fatal(err)
	}
	if err := f.Send([]byte("boom")); !errors.Is(err, ErrReset) {
		t.Fatalf("got %v, want ErrReset", err)
	}
	// The peer sees the torn-down connection after draining.
	if got, err := server.Recv(); err != nil || string(got) != "fine" {
		t.Fatalf("pre-reset message lost: %q %v", got, err)
	}
	if _, err := server.Recv(); err == nil {
		t.Fatal("peer did not observe connection teardown")
	}
}

// TestTCPRecvUntilResumes: a deadline that expires part-way through a
// message leaves the stream in step — the peer writes one message in two
// halves with a pause longer than the deadline, the first RecvUntil
// times out, and the next returns the whole message. Cut in the length
// header and in the body.
func TestTCPRecvUntilResumes(t *testing.T) {
	body := []byte("one message, written in two halves")
	wire := append([]byte{0, 0, 0, byte(len(body))}, body...)
	for _, cut := range []int{2, 4 + len(body)/2} {
		c1, c2 := net.Pipe()
		ep := NewTCP(c1)
		errc := make(chan error, 1)
		go func() {
			_, err := c2.Write(wire[:cut])
			if err == nil {
				time.Sleep(60 * time.Millisecond)
				_, err = c2.Write(wire[cut:])
			}
			errc <- err
		}()
		if _, err := ep.RecvUntil(time.Now().Add(20 * time.Millisecond)); !errors.Is(err, ErrTimeout) {
			t.Fatalf("cut at %d: first RecvUntil: %v, want ErrTimeout", cut, err)
		}
		msg, err := ep.RecvUntil(time.Now().Add(2 * time.Second))
		if err != nil || string(msg) != string(body) {
			t.Fatalf("cut at %d: resumed RecvUntil: %q %v", cut, msg, err)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		// The deadline is disarmed for a plain Recv.
		go c2.Write(wire)
		time.Sleep(30 * time.Millisecond)
		if msg, err := ep.Recv(); err != nil || string(msg) != string(body) {
			t.Fatalf("cut at %d: Recv after RecvUntil: %q %v", cut, msg, err)
		}
		ep.Close()
		c2.Close()
	}
}

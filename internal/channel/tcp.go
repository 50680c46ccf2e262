package channel

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"
)

// maxTCPMessage bounds a single message on the TCP transport (a frame
// message is ~330 bytes; 1 MiB leaves room for any extension).
const maxTCPMessage = 1 << 20

// TCPEndpoint adapts a net.Conn into an Endpoint with length-prefixed
// messages (big-endian uint32 length + payload). A message a RecvUntil
// deadline cuts short is resumed by the next receive.
type TCPEndpoint struct {
	conn   net.Conn
	r      *bufio.Reader
	w      *bufio.Writer
	closed atomic.Bool

	hdr [4]byte
	msg []byte // the body being read; nil while reading the header
	got int    // bytes of hdr, then of msg, read so far
}

// NewTCP wraps an established connection.
func NewTCP(conn net.Conn) *TCPEndpoint {
	return &TCPEndpoint{
		conn: conn,
		r:    bufio.NewReaderSize(conn, 64<<10),
		w:    bufio.NewWriterSize(conn, 64<<10),
	}
}

// Dial connects to a prover at addr.
func Dial(addr string) (*TCPEndpoint, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("channel: %w", err)
	}
	return NewTCP(conn), nil
}

// mapNetErr translates net-level failures into the package's typed
// errors: local close becomes ErrClosed, expired deadlines ErrTimeout.
func (e *TCPEndpoint) mapNetErr(err error) error {
	if err == nil {
		return nil
	}
	if e.closed.Load() || errors.Is(err, net.ErrClosed) {
		return fmt.Errorf("%w: %v", ErrClosed, err)
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("%w: %v", ErrTimeout, err)
	}
	return err
}

// Send writes one length-prefixed message and flushes it.
func (e *TCPEndpoint) Send(msg []byte) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if len(msg) > maxTCPMessage {
		return fmt.Errorf("channel: message of %d bytes exceeds limit", len(msg))
	}
	if len(msg) == 0 {
		return ErrZeroLength
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(msg)))
	if _, err := e.w.Write(hdr[:]); err != nil {
		return e.mapNetErr(err)
	}
	if _, err := e.w.Write(msg); err != nil {
		return e.mapNetErr(err)
	}
	return e.mapNetErr(e.w.Flush())
}

// Recv reads one length-prefixed message.
func (e *TCPEndpoint) Recv() ([]byte, error) { return e.RecvUntil(time.Time{}) }

// RecvUntil reads one length-prefixed message, bounded by t.
func (e *TCPEndpoint) RecvUntil(t time.Time) ([]byte, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	// Only a closed connection refuses a deadline, and the read below
	// reports that (a pipe whose peer hung up as io.EOF).
	_ = e.conn.SetReadDeadline(t)
	if e.msg == nil {
		if err := e.fill(e.hdr[:]); err != nil {
			return nil, e.mapNetErr(err)
		}
		n := binary.BigEndian.Uint32(e.hdr[:])
		if n == 0 {
			// No protocol message is empty (every message carries at least a
			// type byte); an all-zero header means a desynchronised or
			// malicious peer.
			return nil, ErrZeroLength
		}
		if n > maxTCPMessage {
			return nil, fmt.Errorf("channel: message of %d bytes exceeds limit", n)
		}
		e.msg = make([]byte, n)
	}
	if err := e.fill(e.msg); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, e.mapNetErr(err)
	}
	msg := e.msg
	e.msg = nil
	return msg, nil
}

// fill reads into buf until it is full, keeping progress in e.got
// across a failed call.
func (e *TCPEndpoint) fill(buf []byte) error {
	for e.got < len(buf) {
		n, err := e.r.Read(buf[e.got:])
		if e.got += n; err != nil && e.got < len(buf) {
			return err
		}
	}
	e.got = 0
	return nil
}

// Close closes the connection. Later Send/Recv calls return ErrClosed.
func (e *TCPEndpoint) Close() error {
	e.closed.Store(true)
	return e.conn.Close()
}

// DeadlineEndpoint enforces per-message send and receive timeouts on a
// TCPEndpoint by arming the connection deadlines around each operation.
// Expired deadlines surface as ErrTimeout. A zero timeout leaves that
// direction unbounded.
type DeadlineEndpoint struct {
	Inner                    *TCPEndpoint
	SendTimeout, RecvTimeout time.Duration
}

// NewDeadline wraps ep with per-message timeouts.
func NewDeadline(ep *TCPEndpoint, sendTimeout, recvTimeout time.Duration) *DeadlineEndpoint {
	return &DeadlineEndpoint{Inner: ep, SendTimeout: sendTimeout, RecvTimeout: recvTimeout}
}

// Send transmits one message, bounded by SendTimeout.
func (e *DeadlineEndpoint) Send(msg []byte) error {
	if e.SendTimeout > 0 {
		if err := e.Inner.conn.SetWriteDeadline(time.Now().Add(e.SendTimeout)); err != nil {
			return e.Inner.mapNetErr(err)
		}
		defer e.Inner.conn.SetWriteDeadline(time.Time{})
	}
	return e.Inner.Send(msg)
}

// Recv returns one message, bounded by RecvTimeout.
func (e *DeadlineEndpoint) Recv() ([]byte, error) {
	if e.RecvTimeout > 0 {
		return e.Inner.RecvUntil(time.Now().Add(e.RecvTimeout))
	}
	return e.Inner.Recv()
}

// Close closes the wrapped endpoint.
func (e *DeadlineEndpoint) Close() error { return e.Inner.Close() }

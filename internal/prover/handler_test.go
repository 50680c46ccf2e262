package prover

import (
	"bytes"
	"math/rand"
	"net"
	"slices"
	"testing"
	"time"

	"sacha/internal/channel"
	"sacha/internal/ethsim"
	"sacha/internal/fabric"
	"sacha/internal/protocol"
	"sacha/internal/sim"
)

// handlerRequests is a seeded request sequence over every response
// shape: none (configuration, a buffered out-of-order envelope), one
// (plain commands, a scan, a cached duplicate envelope), several (the
// envelope that fills a sequence gap releases its buffered successors)
// and corrupted requests answered with Error messages. It opens and
// closes with a Hello, whose HelloAck marks the end of the stream.
func handlerRequests(t *testing.T, d *Device, rng *rand.Rand) [][]byte {
	t.Helper()
	enc := func(m *protocol.Message) []byte {
		b, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	env := func(seq uint32, m *protocol.Message) []byte {
		return enc(protocol.WrapReq(seq, enc(m)))
	}
	dyn := fabric.DynRegion(d.Geo).Frames()
	frame := func() int { return dyn[rng.Intn(len(dyn))] }
	words := func() []uint32 {
		w := make([]uint32, len(d.Fabric.Mem.Frame(0)))
		for i := range w {
			w[i] = rng.Uint32()
		}
		return w
	}

	reqs := [][]byte{enc(protocol.Hello(protocol.CapScan | protocol.CapCompress))}
	for i := 0; i < 3; i++ {
		reqs = append(reqs, enc(protocol.Config(frame(), words())))
	}
	for i := 0; i < 3; i++ {
		reqs = append(reqs, enc(protocol.Readback(frame())))
	}
	reqs = append(reqs, enc(protocol.Scan([]uint32{uint32(frame()), uint32(frame()), uint32(frame())})))
	truncated := enc(protocol.Readback(frame()))
	reqs = append(reqs, truncated[:len(truncated)-1])
	flipped := enc(protocol.Config(frame(), words()))
	flipped[1+rng.Intn(len(flipped)-1)] ^= byte(1 << rng.Intn(8))
	reqs = append(reqs, flipped, enc(protocol.Checksum()))
	reqs = append(reqs,
		env(1, protocol.Readback(frame())),
		env(3, protocol.Readback(frame())), // ahead of the cursor: buffered
		env(4, protocol.Config(frame(), words())),
		env(2, protocol.Readback(frame())), // fills the gap: releases 2, 3, 4
		env(2, protocol.Readback(frame())), // duplicate: cached response
		env(5, protocol.Checksum()),
		enc(protocol.Hello(0)),
	)
	return reqs
}

// exchangeAll sends every request from a goroutine of its own while it
// receives until the closing HelloAck; it returns the received byte
// stream.
func exchangeAll(t *testing.T, ep channel.Endpoint, reqs [][]byte) [][]byte {
	t.Helper()
	sent := make(chan error, 1)
	go func() {
		for _, r := range reqs {
			if err := ep.Send(r); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	var got [][]byte
	for acks := 0; acks < 2; {
		msg, err := ep.Recv()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, slices.Clone(msg))
		if msg[0] == byte(protocol.MsgHelloAck) {
			acks++
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	return got
}

// TestInlineLinkMatchesTCPServe is the differential test of the inline
// link: the device's Handler run inline on the sender's goroutine and
// the same device served with Serve on its own goroutine, over TCP
// framing on an in-memory pipe, deliver the same byte stream for the
// same seeded requests and charge the device the same virtual time; the
// inline link charges wire time for every message of that stream and
// latency per request.
func TestInlineLinkMatchesTCPServe(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		cfg := channel.SimConfig{
			MessageLatency: 7 * time.Microsecond,
			Ethernet:       true,
			AddrA:          ethsim.MAC{2, 0xFF, 0, 0, 0, 1},
			AddrB:          ethsim.MAC{2, 0, 0, 0, 0, 9},
		}

		ref := newDevice(t)
		c1, c2 := net.Pipe()
		a := channel.NewTCP(c1)
		done := make(chan error, 1)
		go func() { done <- ref.Serve(channel.NewTCP(c2)) }()
		reqs := handlerRequests(t, ref, rand.New(rand.NewSource(seed)))
		want := exchangeAll(t, a, reqs)
		a.Close()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		refLink := sim.NewTimeline()
		for _, r := range reqs {
			refLink.Add("wire", ethsim.WireTime(len(r)))
			refLink.Add("latency", cfg.MessageLatency)
		}
		for _, m := range want {
			refLink.Add("wire", ethsim.WireTime(len(m)))
		}

		dev := newDevice(t)
		cfg.Timeline = sim.NewTimeline()
		ep := channel.NewInline(dev.Handler(), cfg)
		got := exchangeAll(t, ep, handlerRequests(t, dev, rand.New(rand.NewSource(seed))))
		ep.Close()

		if len(got) != len(want) {
			t.Fatalf("seed %d: inline link delivered %d messages, TCP+Serve %d", seed, len(got), len(want))
		}
		kinds := map[protocol.MsgType]int{}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("seed %d: message %d differs:\ninline %x\nTCP    %x", seed, i, got[i], want[i])
			}
			kinds[protocol.MsgType(want[i][0])]++
		}
		// The sequence must really exercise every response shape.
		for _, k := range []protocol.MsgType{protocol.MsgHelloAck, protocol.MsgFrameDataC, protocol.MsgScanData, protocol.MsgError, protocol.MsgSeqResp, protocol.MsgMACValue} {
			if kinds[k] == 0 {
				t.Fatalf("seed %d: no %v in the stream %v", seed, k, kinds)
			}
		}
		if !slices.Equal(cfg.Timeline.Tags(), refLink.Tags()) {
			t.Fatalf("seed %d: link tags %v, want %v", seed, cfg.Timeline.Tags(), refLink.Tags())
		}
		for _, tag := range refLink.Tags() {
			if cfg.Timeline.Tag(tag) != refLink.Tag(tag) {
				t.Fatalf("seed %d: link %q = %v, want %v", seed, tag, cfg.Timeline.Tag(tag), refLink.Tag(tag))
			}
		}
		if cfg.Timeline.String() != refLink.String() || dev.Timeline.String() != ref.Timeline.String() {
			t.Fatalf("seed %d: timelines differ:\nlink   %s vs %s\ndevice %s vs %s", seed,
				cfg.Timeline, refLink, dev.Timeline, ref.Timeline)
		}
	}
}

// TestHandlerStartsFreshSession: Handler resets the per-session state as
// a new Serve session does — a MAC left running by an abandoned session
// does not leak into the next one.
func TestHandlerStartsFreshSession(t *testing.T) {
	d := newDevice(t)
	rb, _ := protocol.Readback(0).Encode()
	sum, _ := protocol.Checksum().Encode()

	h := d.Handler()
	if _, err := h(rb); err != nil { // abandoned mid-readback
		t.Fatal(err)
	}
	h = d.Handler()
	if _, err := h(rb); err != nil {
		t.Fatal(err)
	}
	resps, err := h(sum)
	if err != nil {
		t.Fatal(err)
	}
	first := slices.Clone(resps[0])

	fresh := newDevice(t)
	h = fresh.Handler()
	h(rb)
	resps, _ = h(sum)
	if !bytes.Equal(first, resps[0]) {
		t.Fatal("the second session's MAC continued the abandoned one")
	}
}

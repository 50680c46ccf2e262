package main

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"sacha/internal/attestation"
	"sacha/internal/channel"
	"sacha/internal/core"
	"sacha/internal/device"
	"sacha/internal/netlist"
	"sacha/internal/obs"
	"sacha/internal/protocol"
	"sacha/internal/prover"
)

// TestDeltaWarmupAnswersItsOwnChallenge runs attestOne with -delta
// against an in-process prover on loopback TCP. The warm-up and the
// delta session must carry different nonces, so the prover's two
// MAC_value responses differ: a repeated MAC would mean the delta
// verdict answers a challenge the warm-up already answered. The delta
// session itself must be accepted on the rewrite-only path.
func TestDeltaWarmupAnswersItsOwnChallenge(t *testing.T) {
	geo := device.TinyLX()
	const buildID, nonce = 1, 0xC0FFEE
	key := [16]byte{1, 2, 3, 4}
	dev, err := prover.New(prover.Config{Geo: geo, BootMem: core.BuildBootMem(geo, buildID), Key: prover.RegisterKey(key)})
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.PowerOn(); err != nil {
		t.Fatal(err)
	}

	// The prover serves one session per connection, in order, like
	// sacha-prover, and records the MAC of every MAC_value it sends.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var macs [][16]byte
	served := make(chan struct{})
	go func() {
		defer close(served)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			ep := &channel.Tap{Inner: channel.NewTCP(conn), OnSend: func(m []byte) []byte {
				resp, err := protocol.Decode(m)
				if err == nil && resp.Type == protocol.MsgSeqResp {
					resp, err = protocol.Decode(resp.Inner)
				}
				if err == nil && resp.Type == protocol.MsgMACValue {
					mu.Lock()
					macs = append(macs, resp.MAC)
					mu.Unlock()
				}
				return m
			}}
			dev.Serve(ep)
			ep.Close()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-served
	})

	plan, err := sweepPlan(geo, netlist.Blinker(8), buildID, nonce, attestation.Spec{Compress: true, Delta: true})
	if err != nil {
		t.Fatal(err)
	}
	opts := runOptions(key, false, 2*time.Second, 5, 20*time.Millisecond, 1)
	tg := attestOne(ln.Addr().String(), plan, nonce, attestation.PerSweep, true, nil, 0, opts, 2*time.Second)
	if tg.err != nil {
		t.Fatal(tg.err)
	}
	if !tg.rep.Accepted || !tg.rep.Delta.Applied {
		t.Fatalf("delta session: accepted=%v delta=%+v", tg.rep.Accepted, tg.rep.Delta)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(macs) != 2 {
		t.Fatalf("prover sent %d MAC_value responses, want one per session (2)", len(macs))
	}
	if macs[0] == macs[1] {
		t.Fatalf("warm-up and delta session ended in the same MAC %x: one nonce served both challenges", macs[0])
	}
}

// TestPlainTimeoutIsTheSocketDeadline: with -plain, -timeout is the raw
// per-message socket deadline. A prover that accepts the connection and
// never answers must come back Unreachable, with a TransportError, once
// the 100 ms deadline passes — not after some fixed default.
func TestPlainTimeoutIsTheSocketDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var conns sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		conns.Wait()
	})
	conns.Add(1)
	go func() {
		defer conns.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			go func() {
				defer conns.Done()
				io.Copy(io.Discard, conn) // read everything, answer nothing
				conn.Close()
			}()
		}
	}()

	geo := device.TinyLX()
	plan, err := sweepPlan(geo, netlist.Blinker(8), 1, 0xC0FFEE, attestation.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	const timeout = 100 * time.Millisecond
	opts := runOptions([16]byte{1}, true, timeout, 5, 20*time.Millisecond, 1)
	start := time.Now()
	tg := attestOne(ln.Addr().String(), plan, 0xC0FFEE, attestation.PerSweep, false, nil, 0, opts, timeout)
	elapsed := time.Since(start)
	var te *attestation.TransportError
	if !errors.As(tg.err, &te) || verdictOf(tg) != obs.VerdictUnreachable {
		t.Fatalf("silent prover: verdict %s, err %v; want Unreachable with a TransportError", verdictOf(tg), tg.err)
	}
	if elapsed > time.Second {
		t.Fatalf("silent prover took %v to give up under a %v -timeout", elapsed, timeout)
	}
}

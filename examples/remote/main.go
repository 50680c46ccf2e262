// Remote attestation over TCP: a prover device served on a real socket
// and a verifier that dials it — the deployment shape of the command-line
// tools, in one process for easy running.
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"sacha/internal/attestation"
	"sacha/internal/channel"
	"sacha/internal/core"
	"sacha/internal/device"
	"sacha/internal/netlist"
	"sacha/internal/prover"
)

func main() {
	geo := device.SmallLX()
	app := netlist.Counter(16)
	const buildID = 7
	key := [16]byte{0: 0xA5, 15: 0x5A}

	// Prover side: boot the device and serve it on a socket.
	dev, err := prover.New(prover.Config{
		Geo:     geo,
		BootMem: core.BuildBootMem(geo, buildID),
		Key:     prover.RegisterKey(key),
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := dev.PowerOn(); err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			log.Fatal(err)
		}
		ep := channel.NewTCP(conn)
		defer ep.Close()
		if err := dev.Serve(ep); err != nil {
			log.Printf("prover: %v", err)
		}
	}()
	fmt.Printf("prover listening on %s\n", ln.Addr())

	// Verifier side: reconstruct the golden image from the shared
	// provisioning data and attest over the socket.
	nonce := uint64(time.Now().UnixNano())
	golden, dynFrames, err := core.BuildGolden(geo, app, buildID, nonce)
	if err != nil {
		log.Fatal(err)
	}
	ep, err := channel.Dial(ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer ep.Close()

	start := time.Now()
	plan, err := attestation.NewPlan(attestation.Spec{Geo: geo, Golden: golden, DynFrames: dynFrames, Offset: 1234})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := plan.Run(ep, attestation.RunOpts{Key: key})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("configured %d frames, read back %d frames in %v\n",
		rep.FramesConfigured, rep.FramesRead, time.Since(start).Round(time.Millisecond))
	fmt.Printf("H_Prv == H_Vrf: %v,  B_Prv == B_Vrf: %v  ->  accepted: %v\n",
		rep.MACOK, rep.ConfigOK, rep.Accepted)
}

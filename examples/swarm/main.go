// Swarm attestation: a fleet of SACHa devices attested concurrently, the
// deployment pattern the paper's related-work section motivates for
// large populations of embedded devices. One device in the fleet is
// compromised; the sweep isolates it.
package main

import (
	"context"
	"fmt"
	"log"

	"sacha/internal/attestation"
	"sacha/internal/core"
	"sacha/internal/device"
	"sacha/internal/fleet"
	"sacha/internal/fleet/dispatch"
	"sacha/internal/fleet/registry"
	"sacha/internal/netlist"
	"sacha/internal/prover"
)

const fleetSize = 8

func main() {
	reg, err := registry.New(fleetSize, func(id uint64) (*core.System, error) {
		return core.NewSystem(core.Config{
			Geo:        device.SmallLX(),
			App:        netlist.Blinker(8),
			KeyMode:    core.KeyStatPUF,
			DeviceID:   id,
			LabLatency: -1,
			Seed:       int64(id),
		})
	})
	if err != nil {
		log.Fatal(err)
	}

	// The whole fleet is one device class (same geometry, application,
	// build), so the sweep builds one attestation plan and shares it
	// read-only across the concurrent per-device runs. The
	// PerDevice freshness policy gives every device its own nonce anyway:
	// each run patches the shared plan's nonce column (Plan.WithNonce)
	// instead of rebuilding it.
	cfg := fleet.SweepConfig{
		Concurrency: fleet.DefaultConcurrency,
		Freshness:   attestation.PerDevice,
	}

	// Device 6 is compromised: malicious logic spliced into its dynamic
	// partition between configuration and readback.
	disp := dispatch.New(dispatch.Config{Shards: 1})
	rep, err := disp.Sweep(context.Background(), reg, cfg, func(id uint64) core.AttestOptions {
		if id != 6 {
			return core.AttestOptions{}
		}
		sys, _ := reg.System(id)
		return core.AttestOptions{TamperDevice: func(d *prover.Device) {
			d.Fabric.Mem.Frame(sys.DynFrames()[7])[3] ^= 0x80
		}}
	})
	if err != nil {
		log.Fatal(err)
	}

	for _, r := range rep.Results {
		status := "ok"
		if !r.Healthy() {
			status = "COMPROMISED"
		}
		fmt.Printf("device %d: %-12s (%v)\n", r.DeviceID, status, r.Elapsed.Round(1e6))
	}
	fmt.Printf("\nswarm health: %d/%d devices attested in %v (parallel sweep)\n",
		len(rep.Healthy), reg.Size(), rep.Elapsed.Round(1e6))
	fmt.Printf("attestation plans built: %d (shared across %d devices)\n",
		rep.PlansBuilt, reg.Size())
	fmt.Printf("compromised devices: %v\n", rep.Compromised)
}

// End-to-end smoke of the fleetd coordinator: the daemon is stood up
// in-process against a mixed TinyLX/SmallLX fleet with its control API
// served over real HTTP (the same obs mux the binary uses), a sweep is
// triggered through POST /fleet/sweep, /fleet/status is polled to
// completion, and the shutdown path is exercised: drain refuses new
// sweeps with 503 and Run returns with every session joined. CI runs
// this under -race; a second, binary-level smoke lives in the workflow
// (build sacha-fleetd, curl it, SIGTERM, assert exit 0).
package e2e

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sacha/internal/attestation"
	"sacha/internal/core"
	"sacha/internal/device"
	"sacha/internal/fleet"
	"sacha/internal/fleet/dispatch"
	"sacha/internal/fleet/fleetd"
	"sacha/internal/fleet/registry"
	"sacha/internal/fleet/scheduler"
	"sacha/internal/netlist"
	"sacha/internal/obs"
	"sacha/internal/prover"
)

// fleetdFactory provisions the smoke fleet: mixed geometries, DynPart
// PUF keys, deterministic seeds.
func fleetdFactory(id uint64) (*core.System, error) {
	geo := device.TinyLX()
	if id%2 == 0 {
		geo = device.SmallLX()
	}
	return core.NewSystem(core.Config{
		Geo:        geo,
		App:        netlist.Blinker(8),
		KeyMode:    core.KeyDynPUF,
		DeviceID:   id,
		BuildID:    0xF1EE7,
		LabLatency: -1,
		Seed:       int64(id) * 31,
	})
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// TestFleetdControlAPISmoke is the in-process version of the CI fleetd
// smoke: bring the daemon up, sweep over the API, poll to completion,
// assert verdicts (the tampered member must be isolated), then drain.
func TestFleetdControlAPISmoke(t *testing.T) {
	const size = 10
	reg, err := registry.New(size, fleetdFactory)
	if err != nil {
		t.Fatal(err)
	}
	// One compromised member: device 3's dynamic partition is corrupted
	// after every configuration, so the control-plane smoke proves
	// verdicts flow through the API, not just that requests return 200.
	tamper := func(id uint64) core.AttestOptions {
		if id != 3 {
			return core.AttestOptions{}
		}
		sys, _ := reg.System(id)
		return core.AttestOptions{TamperDevice: func(d *prover.Device) {
			d.Fabric.Mem.Frame(sys.DynFrames()[1])[2] ^= 4
		}}
	}

	daemon := fleetd.New(fleetd.Config{
		Registry:   reg,
		Dispatcher: dispatch.New(dispatch.Config{Shards: 4, PlanCacheSize: 4}),
		Template: fleet.SweepConfig{
			Concurrency: 4,
			Freshness:   attestation.PerDevice,
		},
		Opts:       tamper,
		DrainGrace: 30 * time.Second,
	})
	srv, addr, err := obs.Serve("127.0.0.1:0", nil, daemon.Tracker(), daemon.Routes()...)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + addr.String()

	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan struct{})
	go func() {
		daemon.Run(ctx)
		close(ran)
	}()

	var devices struct {
		Devices []struct {
			ID    uint64 `json:"id"`
			Class string `json:"class"`
			Shard int    `json:"shard"`
		} `json:"devices"`
		Classes []string `json:"classes"`
	}
	getJSON(t, base+"/fleet/devices", &devices)
	if len(devices.Devices) != size || len(devices.Classes) != 2 {
		t.Fatalf("membership: %d devices, %d classes", len(devices.Devices), len(devices.Classes))
	}
	shardOf := map[string]int{}
	for _, d := range devices.Devices {
		if prev, ok := shardOf[d.Class]; ok && prev != d.Shard {
			t.Fatalf("class %s split across shards %d and %d", d.Class, prev, d.Shard)
		}
		shardOf[d.Class] = d.Shard
	}

	resp, err := http.Post(base+"/fleet/sweep", "application/json", bytes.NewBufferString("{}"))
	if err != nil {
		t.Fatal(err)
	}
	var started struct {
		ID     int    `json:"id"`
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&started); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || started.ID == 0 || started.Status != "started" {
		t.Fatalf("POST /fleet/sweep: status %d, body %+v", resp.StatusCode, started)
	}

	var status struct {
		SweepsRun int                 `json:"sweeps_run"`
		Active    *fleetd.SweepRecord `json:"active"`
		Draining  bool                `json:"draining"`
		Last      *fleetd.SweepRecord `json:"last"`
		Verdicts  map[string]int      `json:"last_verdicts"`
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		getJSON(t, base+"/fleet/status", &status)
		if status.Last != nil && status.Last.ID >= started.ID && status.Active == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %d did not complete; status %+v", started.ID, status)
		}
		time.Sleep(50 * time.Millisecond)
	}
	last := status.Last
	if last.Devices != size || last.Healthy != size-1 || last.Compromised != 1 {
		t.Fatalf("sweep verdicts: %+v", last)
	}
	if len(last.CompromisedIDs) != 1 || last.CompromisedIDs[0] != 3 {
		t.Fatalf("compromised set %v, want [3]", last.CompromisedIDs)
	}
	if status.Verdicts[obs.VerdictHealthy] != size-1 || status.Verdicts[obs.VerdictCompromised] != 1 {
		t.Fatalf("status verdict tallies %v", status.Verdicts)
	}
	if len(last.PerShard) != 4 {
		t.Fatalf("per-shard stats: %d shards", len(last.PerShard))
	}
	if last.PlanPatches != size {
		t.Fatalf("per-device freshness patched %d plans, want %d", last.PlanPatches, size)
	}

	// A scoped sweep over one class, synchronously this time.
	body, _ := json.Marshal(map[string]any{"class": devices.Classes[0], "wait": true})
	resp, err = http.Post(base+"/fleet/sweep", "application/json", bytes.NewBuffer(body))
	if err != nil {
		t.Fatal(err)
	}
	var scoped fleetd.SweepRecord
	if err := json.NewDecoder(resp.Body).Decode(&scoped); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if scoped.Class != devices.Classes[0] || scoped.Devices == 0 || scoped.Devices == size {
		t.Fatalf("class-scoped sweep swept %d devices of class %q", scoped.Devices, scoped.Class)
	}

	var history struct {
		Sweeps []fleetd.SweepRecord `json:"sweeps"`
	}
	getJSON(t, base+"/fleet/sweeps", &history)
	if len(history.Sweeps) != 2 || history.Sweeps[0].ID != scoped.ID {
		t.Fatalf("history: %d records, newest %d", len(history.Sweeps), history.Sweeps[0].ID)
	}

	// An oversized body is refused before it is buffered, and no sweep
	// runs for it.
	huge := `{"class":"` + strings.Repeat("a", 1<<20) + `"}`
	resp, err = http.Post(base+"/fleet/sweep", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("1 MiB POST /fleet/sweep answered %d, want 413", resp.StatusCode)
	}
	getJSON(t, base+"/fleet/sweeps", &history)
	if len(history.Sweeps) != 2 {
		t.Fatalf("oversized request ran a sweep: %d records", len(history.Sweeps))
	}

	// The body fails closed: a misspelt field or bytes after the object
	// are refused with 400 instead of running a sweep that ignores them.
	for _, body := range []string{
		`{"wait": true, "nonceseed": 7}`,
		`{"wait": true} trailing`,
		`{"wait": true}{"wait": true}`,
	} {
		resp, err = http.Post(base+"/fleet/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST /fleet/sweep %s answered %d, want 400", body, resp.StatusCode)
		}
	}
	getJSON(t, base+"/fleet/sweeps", &history)
	if len(history.Sweeps) != 2 {
		t.Fatalf("a refused request ran a sweep: %d records", len(history.Sweeps))
	}

	// Shutdown: drain must complete (every sweep ended) and the API must
	// refuse sweeps while it does.
	cancel()
	select {
	case <-ran:
	case <-time.After(time.Minute):
		t.Fatal("daemon did not drain")
	}
	resp, err = http.Post(base+"/fleet/sweep", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining daemon answered POST /fleet/sweep with %d, want 503", resp.StatusCode)
	}
	getJSON(t, base+"/fleet/status", &status)
	if !status.Draining {
		t.Fatal("status does not report draining after shutdown")
	}
}

// TestFleetdScheduledSweeps checks the scheduler path: with a fast
// default cadence the daemon re-attests on its own, and the records
// carry the "scheduled" trigger.
func TestFleetdScheduledSweeps(t *testing.T) {
	reg, err := registry.New(4, fleetdFactory)
	if err != nil {
		t.Fatal(err)
	}
	daemon := fleetd.New(fleetd.Config{
		Registry: reg,
		Template: fleet.SweepConfig{Concurrency: 2},
		Scheduler: scheduler.Config{
			Default: scheduler.Cadence{Every: 30 * time.Millisecond, Jitter: 10 * time.Millisecond},
			Seed:    7,
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan struct{})
	go func() {
		daemon.Run(ctx)
		close(ran)
	}()
	deadline := time.Now().Add(time.Minute)
	for {
		rec, ok := lastRecord(daemon)
		if ok && rec.Trigger == "scheduled" && rec.Class != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no scheduled sweep completed")
		}
		time.Sleep(20 * time.Millisecond)
	}
	cancel()
	select {
	case <-ran:
	case <-time.After(time.Minute):
		t.Fatal("daemon did not drain")
	}
}

// lastRecord peeks the newest record through the status handler — the
// same surface the binary's pollers use, no private state touched.
func lastRecord(d *fleetd.Daemon) (fleetd.SweepRecord, bool) {
	rr := httptest.NewRecorder()
	for _, r := range d.Routes() {
		if r.Pattern == "/fleet/status" {
			r.Handler.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/fleet/status", nil))
		}
	}
	var status struct {
		Last *fleetd.SweepRecord `json:"last"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &status); err != nil || status.Last == nil {
		return fleetd.SweepRecord{}, false
	}
	return *status.Last, true
}

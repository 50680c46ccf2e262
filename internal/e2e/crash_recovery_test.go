// Crash-recovery end-to-end: the verifier dies mid-sweep — in-process
// (a context cancelled between devices over an abandoned store handle)
// and for real (SIGKILL of the sacha-fleetd binary) — and the restarted
// verifier must (a) resume every device at its persisted key
// generation, (b) refuse every nonce the dead process journaled, and
// (c) produce sweeps bit-identical to an uninterrupted twin that never
// crashed. Durability is only real if the recovered state is
// indistinguishable from never having crashed.
package e2e

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"sacha/internal/attestation"
	"sacha/internal/core"
	"sacha/internal/fleet"
	"sacha/internal/fleet/dispatch"
	"sacha/internal/fleet/fleetd"
	"sacha/internal/fleet/registry"
	"sacha/internal/store"
)

// TestCrashRecoveryTwinEquivalence simulates the verifier crash at the
// dispatch layer: a durable fleet is swept once under RotateKey, then a
// second sweep is killed after exactly one device (concurrency 1, the
// context cancelled when the worker reaches for device two), the store
// handle is abandoned un-closed — the SIGKILL shape — and a fresh
// process image (new store handle, new registry) recovers. The
// recovered run's resumed sweep, unioned with the one pre-crash result,
// must equal an uninterrupted twin bit for bit.
func TestCrashRecoveryTwinEquivalence(t *testing.T) {
	const size = 6
	const (
		seedRotate = uint64(0x517E_ED01) // sweep A: RotateKey nonce base
		seedCrash  = uint64(0x517E_ED02) // sweep B: the crashed sweep's base
		nonceFinal = uint64(0xC0FF_EE03) // sweep C: per-sweep pinned nonce
	)
	dir := t.TempDir()

	st, err := store.Open(dir, store.Options{Sync: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	durable, err := registry.NewDurable(size, fleetdFactory, st.Enrollment())
	if err != nil {
		t.Fatal(err)
	}
	// The twin never crashes and never persists: same factory, so its
	// systems are bit-identical siblings of the durable fleet's.
	twin, err := registry.New(size, fleetdFactory)
	if err != nil {
		t.Fatal(err)
	}

	serial := dispatch.Config{Shards: 1}
	cfg := func(policy attestation.FreshnessPolicy, base uint64, journal fleet.NonceSpender) fleet.SweepConfig {
		c := fleet.SweepConfig{Concurrency: 1, SharePlans: true, Freshness: policy, Nonces: journal}
		if policy == attestation.PerSweep {
			c.Nonce = &base
		} else {
			c.NonceSeed = &base
		}
		return c
	}

	// Sweep A: RotateKey on both fleets — generations advance to 2, and
	// the durable side journals both the rotations and the derived
	// nonces it spends.
	seed := seedRotate
	if _, err := dispatch.New(serial).Sweep(context.Background(),
		durable, cfg(attestation.RotateKey, seed, st.Nonces()), nil); err != nil {
		t.Fatalf("durable rotate sweep: %v", err)
	}
	twinA, err := dispatch.New(serial).Sweep(context.Background(),
		twin, cfg(attestation.RotateKey, seed, nil), nil)
	if err != nil {
		t.Fatalf("twin rotate sweep: %v", err)
	}
	if twinA.KeysRotated != size {
		t.Fatalf("twin rotated %d keys, want %d", twinA.KeysRotated, size)
	}

	// Sweep B on the twin runs to completion; on the durable fleet it is
	// killed after exactly one device: with one serial worker, the opts
	// callback fires once per device immediately before its session, so
	// cancelling on the second call lands between device one's completed
	// attestation and device two's context check — device one's derived
	// nonce is journaled, nobody else's is.
	twinB, err := dispatch.New(serial).Sweep(context.Background(),
		twin, cfg(attestation.PerDevice, seedCrash, nil), nil)
	if err != nil {
		t.Fatalf("twin sweep B: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	killOpts := func(uint64) core.AttestOptions {
		calls++
		if calls == 2 {
			cancel()
		}
		return core.AttestOptions{}
	}
	crashed, err := dispatch.New(serial).Sweep(ctx,
		durable, cfg(attestation.PerDevice, seedCrash, st.Nonces()), killOpts)
	if err != nil {
		t.Fatalf("crashed sweep: %v", err)
	}
	var survivor uint64
	completed := 0
	for _, r := range crashed.Results {
		if r.Healthy() {
			survivor = r.DeviceID
			completed++
		}
	}
	if completed != 1 {
		t.Fatalf("crash window: %d devices completed, want exactly 1", completed)
	}

	// The crash: the old handles are simply abandoned (appends are
	// unbuffered writes straight to the fd, so everything the dead
	// process journaled is already on disk), and a fresh process image
	// opens the same directory.
	st2, err := store.Open(dir, store.Options{Sync: store.SyncAlways})
	if err != nil {
		t.Fatalf("reopening store after crash: %v", err)
	}
	defer st2.Close()
	st.Close() // release the abandoned fds only; recovery already read the dir
	recovered, err := registry.NewDurable(size, fleetdFactory, st2.Enrollment())
	if err != nil {
		t.Fatalf("rebuilding registry after crash: %v", err)
	}

	// (a) Generations resumed: every device is at generation 2, same as
	// the twin that never crashed.
	for _, id := range recovered.IDs() {
		sys, _ := recovered.System(id)
		tw, _ := twin.System(id)
		if got, want := sys.KeyGeneration(), tw.KeyGeneration(); got != want || got != 2 {
			t.Fatalf("device %d generation after recovery: %d, twin %d (want 2)", id, got, want)
		}
	}

	// (b) Anti-replay held across the crash: the survivor's derived
	// nonce (and every sweep-A nonce) is still journaled and refused;
	// the interrupted devices' nonces were never spent.
	for _, id := range recovered.IDs() {
		if n := fleet.DeviceNonce(seedRotate, id); !st2.Nonces().Spent(n) {
			t.Fatalf("device %d: sweep-A nonce %#x lost across the crash", id, n)
		}
		n := fleet.DeviceNonce(seedCrash, id)
		if id == survivor {
			if !st2.Nonces().Spent(n) {
				t.Fatalf("survivor %d: spent nonce %#x lost across the crash", id, n)
			}
			if err := st2.Nonces().Spend(n); !errors.Is(err, store.ErrNonceReplayed) {
				t.Fatalf("survivor %d: replaying %#x returned %v, want ErrNonceReplayed", id, n, err)
			}
		} else if st2.Nonces().Spent(n) {
			t.Fatalf("interrupted device %d: nonce %#x spent without an attestation", id, n)
		}
	}

	// (c) Resume sweep B over everyone the crash interrupted, same
	// derivation base. Union with the pre-crash survivor result: the
	// composite must equal the twin's uninterrupted sweep B exactly.
	rest := registry.Select(recovered, func(id uint64, _ string) bool { return id != survivor })
	resumed, err := dispatch.New(serial).Sweep(context.Background(),
		rest, cfg(attestation.PerDevice, seedCrash, st2.Nonces()), nil)
	if err != nil {
		t.Fatalf("resumed sweep: %v", err)
	}
	union := map[uint64]fleet.DeviceResult{}
	for _, r := range crashed.Results {
		if r.DeviceID == survivor {
			union[r.DeviceID] = r
		}
	}
	for _, r := range resumed.Results {
		union[r.DeviceID] = r
	}
	if len(union) != size {
		t.Fatalf("union covers %d devices, want %d", len(union), size)
	}
	for _, want := range twinB.Results {
		got, ok := union[want.DeviceID]
		if !ok {
			t.Fatalf("device %d missing from the resumed union", want.DeviceID)
		}
		if got.Verdict() != want.Verdict() || got.Nonce != want.Nonce {
			t.Fatalf("device %d diverged from twin: verdict %s/%s nonce %#x/%#x",
				want.DeviceID, got.Verdict(), want.Verdict(), got.Nonce, want.Nonce)
		}
		if got.Report == nil || want.Report == nil || got.Report.HVrf != want.Report.HVrf {
			t.Fatalf("device %d H_Vrf diverged from twin after recovery", want.DeviceID)
		}
	}

	// A replayed resume — same derivation base a third time — must fail
	// every member without attesting anyone.
	replay, err := dispatch.New(serial).Sweep(context.Background(),
		recovered, cfg(attestation.PerDevice, seedCrash, st2.Nonces()), nil)
	if err != nil {
		t.Fatalf("replayed sweep: %v", err)
	}
	if len(replay.NonceReplays) != size || len(replay.Healthy) != 0 {
		t.Fatalf("replayed sweep: %d replays, %d healthy (want %d, 0)",
			len(replay.NonceReplays), len(replay.Healthy), size)
	}

	// Sweep C: life after recovery is bit-identical to the twin's.
	gotC, err := dispatch.New(serial).Sweep(context.Background(),
		recovered, cfg(attestation.PerSweep, nonceFinal, st2.Nonces()), nil)
	if err != nil {
		t.Fatalf("recovered sweep C: %v", err)
	}
	wantC, err := dispatch.New(serial).Sweep(context.Background(),
		twin, cfg(attestation.PerSweep, nonceFinal, nil), nil)
	if err != nil {
		t.Fatalf("twin sweep C: %v", err)
	}
	for i := range wantC.Results {
		w, g := wantC.Results[i], gotC.Results[i]
		if w.DeviceID != g.DeviceID || w.Verdict() != g.Verdict() || w.Report.HVrf != g.Report.HVrf {
			t.Fatalf("sweep C device %d diverged from twin", w.DeviceID)
		}
	}
	// And the spent per-sweep nonce is refused at the sweep level.
	var nre *fleet.NonceReplayError
	if _, err := dispatch.New(serial).Sweep(context.Background(),
		recovered, cfg(attestation.PerSweep, nonceFinal, st2.Nonces()), nil); !errors.As(err, &nre) {
		t.Fatalf("replayed per-sweep nonce: err %v, want NonceReplayError", err)
	}
}

// --- binary-level SIGKILL rig -----------------------------------------

// fleetdProc is one run of the sacha-fleetd binary against a state dir.
type fleetdProc struct {
	cmd  *exec.Cmd
	base string // control API base URL, parsed from stderr
	done chan error
}

// startFleetd launches the built binary and waits for its control API
// banner.
func startFleetd(t *testing.T, bin string, args ...string) *fleetdProc {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-obs-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	baseCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "http://"); i >= 0 && strings.Contains(line, "fleet control API") {
				if j := strings.Index(line[i:], "/fleet"); j > 0 {
					select {
					case baseCh <- line[i : i+j]:
					default:
					}
				}
			}
		}
	}()
	p := &fleetdProc{cmd: cmd, done: make(chan error, 1)}
	go func() { p.done <- cmd.Wait() }()
	select {
	case p.base = <-baseCh:
	case err := <-p.done:
		t.Fatalf("fleetd exited before serving: %v", err)
	case <-time.After(time.Minute):
		cmd.Process.Kill()
		t.Fatal("fleetd did not announce its control API")
	}
	return p
}

func (p *fleetdProc) postSweep(t *testing.T, body map[string]any) fleetd.SweepRecord {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(p.base+"/fleet/sweep", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rec fleetd.SweepRecord
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatalf("POST /fleet/sweep: decode: %v", err)
	}
	return rec
}

func (p *fleetdProc) generations(t *testing.T) map[uint64]uint64 {
	t.Helper()
	var devices struct {
		Devices []struct {
			ID         uint64 `json:"id"`
			Generation uint64 `json:"generation"`
		} `json:"devices"`
	}
	getJSON(t, p.base+"/fleet/devices", &devices)
	out := map[uint64]uint64{}
	for _, d := range devices.Devices {
		out[d.ID] = d.Generation
	}
	return out
}

// TestFleetdCrashRecoverySIGKILL is the real thing: the daemon binary
// is SIGKILLed mid-sweep and restarted on the same -state-dir. The
// second process must boot at the rotated key generations, refuse the
// dead process's nonce derivation base, and attest cleanly under a
// fresh one. This is the CI kill-and-restart smoke in test form.
func TestFleetdCrashRecoverySIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("binary crash rig skipped in -short")
	}
	const size = 4
	bin := filepath.Join(t.TempDir(), "sacha-fleetd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/sacha-fleetd")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building sacha-fleetd: %v\n%s", err, out)
	}
	stateDir := t.TempDir()
	common := []string{
		"-fleet", fmt.Sprint(size), "-seed", "11", "-shards", "1", "-concurrency", "1",
		"-state-dir", stateDir, "-fsync", "always",
	}

	// Run 1: rotate every key (generation 1 → 2, journaled), then start
	// an async sweep slowed by link latency and SIGKILL the daemon while
	// it is mid-fleet.
	p1 := startFleetd(t, bin, append(common, "-link-delay", "2ms")...)
	rec := p1.postSweep(t, map[string]any{"wait": true, "freshness": "rotate-key", "nonce_seed": 12345})
	if rec.Healthy != size || rec.KeysRotated != size {
		t.Fatalf("rotate sweep: %d healthy, %d rotated (want %d, %d)", rec.Healthy, rec.KeysRotated, size, size)
	}
	if gens := p1.generations(t); len(gens) != size {
		t.Fatalf("membership: %d devices", len(gens))
	} else {
		for id, g := range gens {
			if g != 2 {
				t.Fatalf("device %d at generation %d after rotation, want 2", id, g)
			}
		}
	}
	// The sweep snapshot carries no sweep identity, so remember when the
	// rotate sweep began: until the tracker shows a different start, a
	// snapshot still describes the finished rotate sweep.
	type sweepSnap struct {
		StartedAt time.Time `json:"started_at"`
		Completed int       `json:"completed"`
	}
	var rotated sweepSnap
	getJSON(t, p1.base+"/debug/sweep", &rotated)
	p1.postSweep(t, map[string]any{"freshness": "per-device", "nonce_seed": 67890})
	// Kill as soon as at least one device of the slow sweep has
	// completed — its derived nonce is then journaled while later
	// devices are still (or never) in flight. If the sweep outruns the
	// poller the test still holds: every nonce is then a journaled one.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var snap sweepSnap
		getJSON(t, p1.base+"/debug/sweep", &snap)
		if !snap.StartedAt.Equal(rotated.StartedAt) && snap.Completed >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow sweep never completed a device")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := p1.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	if err := <-p1.done; err == nil {
		t.Fatal("SIGKILLed daemon reported clean exit")
	}

	// Run 2: same state dir. Boot must resume generation 2, refuse the
	// dead run's derivation base, and serve a fresh sweep normally.
	p2 := startFleetd(t, bin, common...)
	for id, g := range p2.generations(t) {
		if g != 2 {
			t.Fatalf("device %d rebooted at generation %d, want 2 (enrollment lost?)", id, g)
		}
	}
	rec = p2.postSweep(t, map[string]any{"wait": true, "freshness": "per-device", "nonce_seed": 67890})
	if len(rec.NonceReplays) == 0 {
		t.Fatalf("replayed derivation base journaled no replays: %+v", rec)
	}
	if rec.Healthy+len(rec.NonceReplays) != size || rec.Failed != len(rec.NonceReplays) {
		t.Fatalf("replay sweep split: %d healthy, %d failed, replays %v (fleet %d)",
			rec.Healthy, rec.Failed, rec.NonceReplays, size)
	}
	rec = p2.postSweep(t, map[string]any{"wait": true, "freshness": "per-device", "nonce_seed": 424242})
	if rec.Healthy != size || len(rec.NonceReplays) != 0 {
		t.Fatalf("fresh sweep after recovery: %d healthy, replays %v", rec.Healthy, rec.NonceReplays)
	}

	// Graceful shutdown this time: SIGTERM must drain and exit 0.
	if err := p2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-p2.done:
		if err != nil {
			t.Fatalf("drained daemon exited non-zero: %v", err)
		}
	case <-time.After(time.Minute):
		p2.cmd.Process.Kill()
		t.Fatal("daemon did not drain after SIGTERM")
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"sacha/internal/attestation"
	"sacha/internal/channel"
	"sacha/internal/core"
	"sacha/internal/device"
	"sacha/internal/fabric"
	"sacha/internal/fleet"
	"sacha/internal/fleet/dispatch"
	"sacha/internal/fleet/fleetd"
	"sacha/internal/fleet/registry"
	"sacha/internal/netlist"
	"sacha/internal/obs"
	"sacha/internal/obs/span"
	"sacha/internal/prover"
	"sacha/internal/store"
)

// buildID is the static bitstream build shared by the fleet (the
// sacha-fleetd default).
const buildID = 0xF1EE7

// geometry is the fleet layout: odd IDs TinyLX, even IDs SmallLX in a
// mixed fleet, TinyLX throughout otherwise.
func geometry(w Workload, id uint64) *device.Geometry {
	if w.Mixed && id%2 == 0 {
		return device.SmallLX()
	}
	return device.TinyLX()
}

// newSystem provisions device id the way sacha-fleetd does.
func newSystem(w Workload, provisionSeed int64, id uint64) (*core.System, error) {
	return core.NewSystem(core.Config{
		Geo:        geometry(w, id),
		App:        netlist.Blinker(8),
		KeyMode:    core.KeyDynPUF,
		DeviceID:   id,
		BuildID:    buildID,
		LabLatency: -1,
		Seed:       provisionSeed*0x1000193 + int64(id),
	})
}

// Stack is one running fleet: registry, dispatcher, optional store and
// an in-process fleetd daemon served over a loopback listener, plus the
// single keep-alive client the closed loop drives it through.
type Stack struct {
	wl      Workload
	sched   Schedule
	st      *store.Store
	systems map[uint64]*core.System
	daemon  *fleetd.Daemon
	srv     *http.Server
	client  *http.Client
	base    string
	tr      *Tracer

	serveDone chan struct{}
	runDone   chan struct{}
	runCancel context.CancelFunc

	StoreOpen time.Duration // store.Open (zero without a state dir)
	Provision time.Duration // registry construction over the whole fleet
}

// NewStack provisions the workload's fleet and starts the daemon. dir
// is the state directory of durable workloads; tr, when non-nil, arms
// the traced run's hooks and the daemon's span collector.
func NewStack(w Workload, s Schedule, dir string, tr *Tracer) (_ *Stack, err error) {
	k := &Stack{wl: w, sched: s, systems: map[uint64]*core.System{}, tr: tr}
	defer func() {
		if err != nil {
			k.Close()
		}
	}()
	factory := func(id uint64) (*core.System, error) { return newSystem(w, s.ProvisionSeed, id) }
	var (
		reg  registry.Registry
		dreg *registry.Durable
	)
	if w.Durable {
		pol, err := store.ParseSyncPolicy(w.Fsync)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		k.st, err = store.Open(dir, store.Options{Sync: pol, NonceTTL: 24 * time.Hour})
		k.StoreOpen = time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("opening state dir: %w", err)
		}
		t0 = time.Now()
		dreg, err = registry.NewDurable(w.Fleet, factory, k.st.Enrollment())
		k.Provision = time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("provisioning: %w", err)
		}
		reg = dreg
	} else {
		t0 := time.Now()
		sreg, err := registry.New(w.Fleet, factory)
		k.Provision = time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("provisioning: %w", err)
		}
		reg = sreg
	}
	for _, id := range reg.IDs() {
		sys, _ := reg.System(id)
		k.systems[id] = sys
	}

	tpl := fleet.SweepConfig{
		Concurrency: w.Concurrency,
		SharePlans:  true,
		Freshness:   attestation.PerDevice,
		Compress:    w.Delta,
		Delta:       w.Delta,
	}
	if k.st != nil {
		tpl.Nonces = k.st.Nonces()
		if tr != nil {
			tpl.Nonces = &timedSpender{inner: tpl.Nonces, tr: tr}
		}
	}
	if w.Delta {
		if dreg == nil {
			return nil, fmt.Errorf("workload %s: delta needs the durable trust ledger", w.Name)
		}
		tpl.Trust = dreg.Ledger()
	}
	if tr != nil {
		tpl.Spans = span.NewCollector(span.DefaultCap)
	}
	k.daemon = fleetd.New(fleetd.Config{
		Registry:   reg,
		Dispatcher: dispatch.New(dispatch.Config{Shards: w.Shards, PlanCacheSize: w.PlanCache}),
		Template:   tpl,
		Opts:       k.attestOpts,
	})
	ctx, cancel := context.WithCancel(context.Background())
	k.runCancel = cancel
	k.runDone = make(chan struct{})
	go func() {
		defer close(k.runDone)
		k.daemon.Run(ctx)
	}()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	k.srv = &http.Server{Handler: obs.Handler(nil, k.daemon.Tracker(), k.daemon.Routes()...)}
	k.serveDone = make(chan struct{})
	go func() {
		defer close(k.serveDone)
		k.srv.Serve(ln)
	}()
	k.base = "http://" + ln.Addr().String()
	// One client on one connection: the closed loop never has two
	// requests in flight, and keep-alive reuses the same socket.
	k.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
	return k, nil
}

// attestOpts is the daemon's per-device Opts hook: the tamper, the link
// model and (traced) the channel wrapper.
func (k *Stack) attestOpts(id uint64) core.AttestOptions {
	var o core.AttestOptions
	if k.tr != nil {
		defer k.tr.optsCalled(id, time.Now())
	}
	if id == k.sched.Tamper {
		frame := k.systems[id].DynFrames()[1]
		o.TamperDevice = func(d *prover.Device) {
			d.Fabric.Mem.Frame(frame)[2] ^= 4
		}
	}
	var wrap []func(channel.Endpoint) channel.Endpoint
	if k.wl.LinkDelay > 0 {
		delay := k.wl.LinkDelay
		o.Opts.Retry = attestation.RetryPolicy{
			Window:     k.wl.Window,
			Timeout:    4*delay + 250*time.Millisecond,
			MaxRetries: 5,
		}
		wrap = append(wrap, func(ep channel.Endpoint) channel.Endpoint {
			return channel.NewDelayEndpoint(ep, delay)
		})
	}
	if k.tr != nil {
		wrap = append(wrap, func(ep channel.Endpoint) channel.Endpoint {
			return k.tr.wrapChannel(id, ep)
		})
	}
	if len(wrap) > 0 {
		o.WrapVerifierChannel = func(ep channel.Endpoint) channel.Endpoint {
			for _, f := range wrap {
				ep = f(ep)
			}
			return ep
		}
	}
	return o
}

// InjectDrift flips one configuration bit of a device's simulated
// fabric outside its nonce column — an SEU between sweeps.
func (k *Stack) InjectDrift(d *Drift) error {
	sys, ok := k.systems[d.Device]
	if !ok {
		return fmt.Errorf("drift target %d not in the fleet", d.Device)
	}
	nonce, err := fabric.NonceColumnFrames(sys.Geo)
	if err != nil {
		return err
	}
	skip := map[int]bool{}
	for _, f := range nonce {
		skip[f] = true
	}
	var cands []int
	for _, f := range sys.DynFrames() {
		if !skip[f] {
			cands = append(cands, f)
		}
	}
	if len(cands) == 0 {
		return fmt.Errorf("device %d has no non-nonce dynamic frame", d.Device)
	}
	// A used flip-flop's capture bit reads back as the live FF state, so
	// an upset there is invisible to any scan. Walk on from the seeded
	// bit to the first one whose flip the readback shows, which keeps the
	// expected mismatch exact.
	fab := sys.Device.Fabric
	frame := cands[d.Pick%len(cands)]
	before, err := fab.ReadbackFrame(frame)
	if err != nil {
		return err
	}
	words := fab.Mem.Frame(frame)
	for k := 0; k < 32*len(words); k++ {
		bit := (d.Word*32 + int(d.Bit) + k) % (32 * len(words))
		words[bit/32] ^= 1 << (bit % 32)
		after, err := fab.ReadbackFrame(frame)
		if err != nil {
			return err
		}
		if after[bit/32] != before[bit/32] {
			return nil
		}
		words[bit/32] ^= 1 << (bit % 32)
	}
	return fmt.Errorf("device %d frame %d: no bit flip shows in readback", d.Device, frame)
}

// SweepResult is one closed-loop iteration as the client saw it.
type SweepResult struct {
	Record fleetd.SweepRecord
	Snap   obs.SweepSnapshot
	Wall   time.Duration // POST sent → SweepRecord received
	Status int
}

// Sweep triggers one synchronous sweep with a pinned nonce seed and
// reads the per-device rows back from /debug/sweep.
func (k *Stack) Sweep(in SweepInput) (SweepResult, error) {
	var r SweepResult
	body, _ := json.Marshal(map[string]any{"wait": true, "nonce_seed": in.NonceSeed})
	t0 := time.Now()
	resp, err := k.client.Post(k.base+"/fleet/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		return r, fmt.Errorf("POST /fleet/sweep: %w", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.Wall = time.Since(t0)
	r.Status = resp.StatusCode
	if err != nil {
		return r, fmt.Errorf("reading sweep record: %w", err)
	}
	if resp.StatusCode/100 != 2 {
		return r, nil
	}
	if err := json.Unmarshal(data, &r.Record); err != nil {
		return r, fmt.Errorf("decoding sweep record: %w", err)
	}
	if err := k.getJSON("/debug/sweep", &r.Snap); err != nil {
		return r, err
	}
	return r, nil
}

func (k *Stack) getJSON(path string, v any) error {
	resp, err := k.client.Get(k.base + path)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// Close stops the listener, drains the daemon (joining every session)
// and closes the store. It is safe on a partially built stack.
func (k *Stack) Close() error {
	var errs []error
	if k.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		errs = append(errs, k.srv.Shutdown(ctx))
		cancel()
		<-k.serveDone
	}
	if k.client != nil {
		k.client.CloseIdleConnections()
	}
	if k.runCancel != nil {
		k.runCancel()
		<-k.runDone
	}
	if k.st != nil {
		errs = append(errs, k.st.Close())
	}
	return errors.Join(errs...)
}

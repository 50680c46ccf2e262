package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// Workload is one fixed configuration of the fleet stack the benchmark
// drives. The names are stable: later changes are judged per workload.
type Workload struct {
	Name string `json:"name"`

	Fleet       int    `json:"fleet"`       // devices, IDs 1..Fleet
	Mixed       bool   `json:"mixed"`       // odd IDs TinyLX, even SmallLX; else all TinyLX
	Shards      int    `json:"shards"`      // dispatcher shards
	PlanCache   int    `json:"plan_cache"`  // per-shard plan-cache capacity
	Concurrency int    `json:"concurrency"` // sessions in flight
	Durable     bool   `json:"durable"`     // registry.NewDurable over a fresh state dir
	Fsync       string `json:"fsync,omitempty"`
	Tamper      bool   `json:"tamper"` // one seeded device tampered every sweep
	Delta       bool   `json:"delta"`  // Delta + Compress + durable trust ledger
	Drift       bool   `json:"drift"`  // one seeded SEU before every measured sweep

	LinkDelay time.Duration `json:"link_delay_ns"`
	Window    int           `json:"window"`
}

// workloads lists every workload the benchmark defines; why each
// exists is recorded in BENCHMARK.json and README.md. A CPU-bound
// full-overwrite fleet without delta is left out: on a shared host its
// timings swing as much as fleet-delta's, and fleet-delta already runs
// the full-overwrite path in its fallback sessions.
func workloads() []Workload {
	return []Workload{
		{
			Name:        "fleet-delta",
			Fleet:       32,
			Mixed:       true,
			Shards:      4,
			PlanCache:   8,
			Concurrency: runtime.NumCPU(),
			Durable:     true,
			Fsync:       "always",
			Tamper:      true,
			Delta:       true,
			Drift:       true,
		},
		{
			Name:        "link-1ms",
			Fleet:       4,
			Shards:      1,
			PlanCache:   8,
			Concurrency: 2,
			LinkDelay:   time.Millisecond,
			Window:      16,
		},
	}
}

func lookupWorkload(name string) (Workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return Workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// largest reports whether device id has the workload's largest
// geometry (SmallLX in a mixed fleet), whose sessions the attest_ms percentiles
// are taken over. In an all-TinyLX fleet every device is the largest.
func (w Workload) largest(id uint64) bool {
	return !w.Mixed || id%2 == 0
}

// largestIDs lists the devices of the largest geometry.
func (w Workload) largestIDs() []uint64 {
	var ids []uint64
	for id := uint64(1); id <= uint64(w.Fleet); id++ {
		if w.largest(id) {
			ids = append(ids, id)
		}
	}
	return ids
}

// minSweeps is the measured-sweep floor that gives the attest_ms_p90
// percentile at least ten largest-geometry samples beyond it.
func (w Workload) minSweeps() int {
	per := len(w.largestIDs())
	return (110 + per - 1) / per
}

// Schedule is everything the benchmark feeds the program for one seed:
// the provisioning seed, the tampered device, and per sweep a pinned
// nonce seed and (in drift workloads) the SEU to inject. It is a pure
// function of (workload, seed).
type Schedule struct {
	Seed          int64
	ProvisionSeed int64
	Tamper        uint64 // 0 = no tampered device
	wl            Workload
}

// Drift is one injected single-event upset: bit Bit of word Word in the
// Pick-th non-nonce dynamic frame of Device (the stack resolves Pick
// modulo the device's candidate frame count).
type Drift struct {
	Device uint64 `json:"device"`
	Pick   int    `json:"pick"`
	Word   int    `json:"word"`
	Bit    uint   `json:"bit"`
}

// SweepInput is the generated input of sweep i. Sweep 0 is the warm-up.
type SweepInput struct {
	NonceSeed uint64 `json:"nonce_seed"`
	Drift     *Drift `json:"drift,omitempty"`
}

// splitmix is the splitmix64 finalizer: the generator's only source of
// randomness, so the schedule is reproducible across Go versions.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// below maps r onto [0, n) through its high half: the low bits of
// splitmix64 composed with an additive offset repeat across nearby
// inputs.
func below(r uint64, n int) uint64 {
	return (r >> 32) * uint64(n) >> 32
}

// NewSchedule derives the schedule of a workload for a seed.
func NewSchedule(w Workload, seed int64) Schedule {
	s := Schedule{Seed: seed, wl: w}
	base := splitmix(uint64(seed) ^ 0x5AC4A0B3)
	s.ProvisionSeed = int64(splitmix(base+1) >> 1)
	if w.Tamper {
		// Tamper and drift targets have the largest geometry, so what
		// their full overwrites cost does not depend on the seed.
		ids := w.largestIDs()
		s.Tamper = ids[below(splitmix(base+2), len(ids))]
	}
	return s
}

func (s Schedule) stream(tag, i uint64) uint64 {
	return splitmix(splitmix(uint64(s.Seed)^tag) + i)
}

// Sweep returns the input of sweep i (0 = warm-up). The warm-up never
// drifts: it is what warms the trust ledger. Measured sweep i drifts a
// largest-geometry device that is neither the tampered one nor sweep
// i-1's drift device, so the victim is always warm and its scan takes
// the mismatch path.
func (s Schedule) Sweep(i int) SweepInput {
	in := SweepInput{NonceSeed: s.stream(0x40CE, uint64(i))}
	if !s.wl.Drift || i == 0 {
		return in
	}
	var prev uint64
	for j := 1; j <= i; j++ {
		var cands []uint64
		for _, id := range s.wl.largestIDs() {
			if id != s.Tamper && id != prev {
				cands = append(cands, id)
			}
		}
		r := s.stream(0xD21F, uint64(j))
		dev := cands[below(r, len(cands))]
		if j == i {
			q := splitmix(r)
			in.Drift = &Drift{
				Device: dev,
				Pick:   int(below(q, 4096)),
				Word:   int(below(q<<32, 81)),
				Bit:    uint(below(splitmix(q), 32)),
			}
		}
		prev = dev
	}
	return in
}

// Expect is what a correct sweep reports for a generated input.
type Expect struct {
	Devices     []uint64
	Compromised []uint64 // the tampered device, if any
	Unexpected  []uint64 // delta_unexpected: the drift device, if any
	// DeltaFallbacks is the exact fallback count of a delta sweep: the
	// cold devices (tampered, previous sweep's drift victim) plus this
	// sweep's mismatch. -1 when the sweep does not run delta.
	DeltaFallbacks int
	// Warm means plans must come from the cache (plans_built == 0).
	Warm bool
}

// Expectation derives the correct outcome of sweep i.
func (s Schedule) Expectation(w Workload, i int) Expect {
	e := Expect{DeltaFallbacks: -1, Warm: i > 0}
	for id := uint64(1); id <= uint64(w.Fleet); id++ {
		e.Devices = append(e.Devices, id)
	}
	if s.Tamper != 0 {
		e.Compromised = []uint64{s.Tamper}
	}
	in := s.Sweep(i)
	if in.Drift != nil {
		e.Unexpected = []uint64{in.Drift.Device}
	}
	if w.Delta {
		if i == 0 {
			// Fresh state dir: the ledger is cold for every device.
			e.DeltaFallbacks = w.Fleet
		} else {
			cold := map[uint64]bool{}
			if s.Tamper != 0 {
				cold[s.Tamper] = true
			}
			if i > 1 {
				if p := s.Sweep(i - 1).Drift; p != nil {
					cold[p.Device] = true
				}
			}
			if in.Drift != nil {
				cold[in.Drift.Device] = true
			}
			e.DeltaFallbacks = len(cold)
		}
	}
	sort.Slice(e.Compromised, func(a, b int) bool { return e.Compromised[a] < e.Compromised[b] })
	return e
}

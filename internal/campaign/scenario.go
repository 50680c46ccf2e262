// Package campaign is the adversarial soak harness of the SACHa stack:
// a seeded, deterministic scenario engine that drives long randomized
// campaigns over large mixed-geometry fleets, interleaving every
// implemented adversary (internal/attack), transport fault storms
// (channel.FaultEndpoint), SEU injection plus scrub repair cycles
// (internal/scrub), freshness-policy churn (PerSweep → PerDevice →
// RotateKey) and mid-sweep cancellations — while continuously asserting
// three invariants:
//
//  1. Zero false verdicts: a healthy device never reports Compromised,
//     a tampered device never reports Healthy, and transport trouble
//     never bleeds into the Compromised partition (or vice versa).
//  2. Bounded memory: the heap ceiling, sampled between events, is
//     never exceeded — plan caches and session buffers must not grow
//     with campaign length.
//  3. Live metrics stay consistent with the campaign ledger: the obs
//     sweep counters advance by exactly the verdicts the ledger
//     recorded, and the in-flight gauge returns to zero between events.
//
// The paper's security evaluation (§7.2) replays each adversary once;
// JustSTART (PAPERS.md) found a real config-interface authentication
// bypass on UltraScale(+) only by applying sustained randomized
// pressure of exactly this kind. This package is that pressure for the
// SACHa reproduction, exposed as cmd/sacha-soak.
package campaign

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Defaults for the scenario knobs a caller leaves at zero.
const (
	DefaultFleet       = 32
	DefaultConcurrency = 8
	DefaultHeapMB      = 768
	DefaultPlanCache   = 8
)

// Weights is the relative event mix of the scheduler's lottery. Zero
// weight disables the event kind; the zero value of the whole struct
// selects DefaultWeights.
type Weights struct {
	// Sweep is a plain fleet sweep under the churning freshness policy,
	// with a scheduler-chosen subset of devices tampered mid-protocol.
	Sweep int `json:"sweep"`
	// Storm is a sweep with seeded transport fault injection (drops,
	// duplicates, reorders, corruptions, delays, scripted resets) on a
	// subset of devices, over the reliable transport.
	Storm int `json:"storm"`
	// Attack replays one registered adversary (attack.Registry) against
	// one fleet member.
	Attack int `json:"attack"`
	// SEU injects seeded single-event upsets into one device and runs a
	// full scrub scan/repair cycle against the golden image.
	SEU int `json:"seu"`
	// Kill is a sweep whose context is cancelled mid-flight after a
	// scheduler-chosen number of devices started.
	Kill int `json:"kill"`
	// Crash closes (cleanly or abandoned, alternating by seed) and
	// reopens the campaign's durable store between events, rebuilding the
	// registry from the persisted enrollments — the verifier-restart
	// event. Key generations, classes and spent nonces must reconcile
	// exactly across the restart.
	Crash int `json:"crash"`
}

// DefaultWeights is the standard campaign mix.
var DefaultWeights = Weights{Sweep: 4, Storm: 2, Attack: 3, SEU: 2, Kill: 1, Crash: 1}

func (w Weights) sum() int { return w.Sweep + w.Storm + w.Attack + w.SEU + w.Kill + w.Crash }

func (w Weights) String() string {
	return fmt.Sprintf("sweep:%d;storm:%d;attack:%d;seu:%d;kill:%d;crash:%d",
		w.Sweep, w.Storm, w.Attack, w.SEU, w.Kill, w.Crash)
}

// Scenario bounds one campaign. Exactly one of MaxEvents and Duration
// may be zero; with both set, whichever trips first ends the campaign.
// Every random decision of the campaign — the event sequence, tamper
// subsets, fault seeds, SEU positions — derives from Seed, so equal
// scenarios reproduce the identical event sequence (and, with
// MaxEvents bounding instead of wall time, the identical report).
type Scenario struct {
	Seed  int64 `json:"seed"`
	Fleet int   `json:"fleet"`
	// Concurrency is the sweep worker-pool size.
	Concurrency int `json:"concurrency"`
	// MaxEvents bounds the campaign by event count — the reproducible
	// bound: same seed and MaxEvents give the identical report.
	MaxEvents int `json:"max_events,omitempty"`
	// Duration bounds the campaign by wall time. A duration-bounded run
	// reports how many events it executed; re-running with that count
	// as MaxEvents reproduces it exactly.
	Duration time.Duration `json:"duration_ns,omitempty"`
	// HeapCeilingMB is the bounded-memory invariant: HeapAlloc sampled
	// between events must stay under this many MiB.
	HeapCeilingMB int `json:"heap_ceiling_mb"`
	// PlanCacheSize caps the dispatcher's PlanCache (the campaign runs
	// one shard) — deliberately small so the campaign proves memory
	// stays bounded under cache churn rather than under an effectively
	// unbounded cache.
	PlanCacheSize int     `json:"plan_cache_size"`
	Weights       Weights `json:"weights"`
}

// Normalized returns the scenario with defaults filled in.
func (sc Scenario) Normalized() Scenario {
	if sc.Fleet == 0 {
		sc.Fleet = DefaultFleet
	}
	if sc.Concurrency == 0 {
		sc.Concurrency = DefaultConcurrency
	}
	if sc.HeapCeilingMB == 0 {
		sc.HeapCeilingMB = DefaultHeapMB
	}
	if sc.PlanCacheSize == 0 {
		sc.PlanCacheSize = DefaultPlanCache
	}
	if sc.Weights == (Weights{}) {
		sc.Weights = DefaultWeights
	}
	return sc
}

// Validate rejects unrunnable scenarios.
func (sc Scenario) Validate() error {
	n := sc.Normalized()
	if n.Fleet < 2 {
		return fmt.Errorf("campaign: fleet %d (need ≥ 2 for a mixed-geometry fleet)", n.Fleet)
	}
	if n.Fleet > 1<<16 {
		return fmt.Errorf("campaign: fleet %d exceeds the %d-device bound", n.Fleet, 1<<16)
	}
	if n.Concurrency < 1 {
		return fmt.Errorf("campaign: concurrency %d", n.Concurrency)
	}
	if n.MaxEvents < 0 || n.Duration < 0 {
		return fmt.Errorf("campaign: negative bound (events=%d duration=%v)", n.MaxEvents, n.Duration)
	}
	if n.MaxEvents == 0 && n.Duration == 0 {
		return fmt.Errorf("campaign: unbounded scenario — set MaxEvents and/or Duration")
	}
	if n.HeapCeilingMB < 1 {
		return fmt.Errorf("campaign: heap ceiling %d MiB", n.HeapCeilingMB)
	}
	if n.PlanCacheSize < 1 {
		return fmt.Errorf("campaign: plan cache size %d", n.PlanCacheSize)
	}
	w := n.Weights
	if w.Sweep < 0 || w.Storm < 0 || w.Attack < 0 || w.SEU < 0 || w.Kill < 0 || w.Crash < 0 {
		return fmt.Errorf("campaign: negative event weight in %s", w)
	}
	if w.sum() <= 0 {
		return fmt.Errorf("campaign: event weights sum to zero")
	}
	return nil
}

// String renders the scenario in the compact form ParseScenario accepts.
func (sc Scenario) String() string {
	n := sc.Normalized()
	parts := []string{
		fmt.Sprintf("seed=%d", n.Seed),
		fmt.Sprintf("fleet=%d", n.Fleet),
		fmt.Sprintf("conc=%d", n.Concurrency),
	}
	if n.MaxEvents > 0 {
		parts = append(parts, fmt.Sprintf("events=%d", n.MaxEvents))
	}
	if n.Duration > 0 {
		parts = append(parts, fmt.Sprintf("duration=%s", n.Duration))
	}
	parts = append(parts,
		fmt.Sprintf("heap-mb=%d", n.HeapCeilingMB),
		fmt.Sprintf("cache=%d", n.PlanCacheSize),
		fmt.Sprintf("weights=%s", n.Weights))
	return strings.Join(parts, ",")
}

// ParseScenario parses the compact scenario spelling:
//
//	seed=7,fleet=32,events=40,duration=60s,conc=8,heap-mb=768,cache=8,
//	weights=sweep:4;storm:2;attack:3;seu:2;kill:1
//
// Unknown keys, malformed values and unrunnable combinations are
// rejected; omitted keys take the package defaults. The empty string is
// not a scenario (a campaign needs at least one bound).
func ParseScenario(s string) (Scenario, error) {
	var sc Scenario
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return Scenario{}, fmt.Errorf("campaign: field %q is not key=value", field)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		var err error
		switch key {
		case "seed":
			sc.Seed, err = strconv.ParseInt(val, 0, 64)
		case "fleet":
			sc.Fleet, err = atoi(val)
		case "conc", "concurrency":
			sc.Concurrency, err = atoi(val)
		case "events":
			sc.MaxEvents, err = atoi(val)
		case "duration":
			sc.Duration, err = time.ParseDuration(val)
		case "heap-mb":
			sc.HeapCeilingMB, err = atoi(val)
		case "cache":
			sc.PlanCacheSize, err = atoi(val)
		case "weights":
			sc.Weights, err = parseWeights(val)
		default:
			return Scenario{}, fmt.Errorf("campaign: unknown scenario key %q", key)
		}
		if err != nil {
			return Scenario{}, fmt.Errorf("campaign: %s=%q: %v", key, val, err)
		}
	}
	if err := sc.Validate(); err != nil {
		return Scenario{}, err
	}
	return sc.Normalized(), nil
}

func atoi(s string) (int, error) {
	v, err := strconv.ParseInt(s, 0, 32)
	return int(v), err
}

// parseWeights parses "sweep:4;storm:2;attack:3;seu:2;kill:1" (any
// subset of the keys; omitted kinds get weight 0).
func parseWeights(s string) (Weights, error) {
	var w Weights
	for _, field := range strings.Split(s, ";") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, ":")
		if !ok {
			return Weights{}, fmt.Errorf("weight %q is not kind:weight", field)
		}
		n, err := atoi(strings.TrimSpace(val))
		if err != nil {
			return Weights{}, fmt.Errorf("weight %q: %v", field, err)
		}
		switch strings.TrimSpace(key) {
		case "sweep":
			w.Sweep = n
		case "storm":
			w.Storm = n
		case "attack":
			w.Attack = n
		case "seu":
			w.SEU = n
		case "kill":
			w.Kill = n
		case "crash":
			w.Crash = n
		default:
			return Weights{}, fmt.Errorf("unknown event kind %q", key)
		}
	}
	return w, nil
}

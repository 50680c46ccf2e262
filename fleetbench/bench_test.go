package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"
)

func mustWorkload(t *testing.T, name string) Workload {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestScheduleIsPureFunctionOfSeed: the generator's whole output — the
// provisioning seed, the tamper target, every sweep's nonce seed and
// drift — is reproduced exactly from the seed.
func TestScheduleIsPureFunctionOfSeed(t *testing.T) {
	for _, w := range workloads() {
		a, b := NewSchedule(w, 7), NewSchedule(w, 7)
		if a != b {
			t.Fatalf("%s: schedules differ: %+v vs %+v", w.Name, a, b)
		}
		for i := 0; i < 40; i++ {
			if x, y := a.Sweep(i), b.Sweep(i); !reflect.DeepEqual(x, y) {
				t.Fatalf("%s sweep %d: %+v vs %+v", w.Name, i, x, y)
			}
			if x, y := a.Expectation(w, i), b.Expectation(w, i); !reflect.DeepEqual(x, y) {
				t.Fatalf("%s expectation %d: %+v vs %+v", w.Name, i, x, y)
			}
		}
	}
}

// TestSeedsPickDifferentTargets: different seeds tamper and drift
// different devices, and the tamper target spreads over the fleet.
func TestSeedsPickDifferentTargets(t *testing.T) {
	w := mustWorkload(t, "fleet-delta")
	a, b := NewSchedule(w, 1), NewSchedule(w, 2)
	if a.Tamper == b.Tamper {
		t.Errorf("seeds 1 and 2 tamper the same device %d", a.Tamper)
	}
	var da, db []uint64
	for i := 1; i <= 8; i++ {
		da = append(da, a.Sweep(i).Drift.Device)
		db = append(db, b.Sweep(i).Drift.Device)
	}
	if reflect.DeepEqual(da, db) {
		t.Errorf("seeds 1 and 2 drift the same devices %v", da)
	}
	seen := map[uint64]bool{}
	for seed := int64(1); seed <= 16; seed++ {
		seen[NewSchedule(w, seed).Tamper] = true
	}
	if len(seen) < 8 {
		t.Errorf("16 seeds chose only %d distinct tamper targets", len(seen))
	}
}

// TestDriftAvoidsColdDevices: the drift victim is never the tampered
// device nor the previous sweep's victim (both are cold, so their
// sessions would not scan), the warm-up never drifts, and nonce seeds
// never repeat within a run.
func TestDriftAvoidsColdDevices(t *testing.T) {
	w := mustWorkload(t, "fleet-delta")
	for seed := int64(1); seed <= 20; seed++ {
		s := NewSchedule(w, seed)
		if s.Tamper < 1 || s.Tamper > uint64(w.Fleet) {
			t.Fatalf("seed %d: tamper %d outside the fleet", seed, s.Tamper)
		}
		if s.Sweep(0).Drift != nil {
			t.Fatalf("seed %d: warm-up drifts", seed)
		}
		nonces := map[uint64]bool{}
		var prev uint64
		for i := 0; i < 30; i++ {
			in := s.Sweep(i)
			if nonces[in.NonceSeed] {
				t.Fatalf("seed %d: nonce seed repeats at sweep %d", seed, i)
			}
			nonces[in.NonceSeed] = true
			if i == 0 {
				continue
			}
			d := in.Drift.Device
			if d == s.Tamper || d == prev || d < 1 || d > uint64(w.Fleet) {
				t.Fatalf("seed %d sweep %d: drift device %d (tamper %d, previous %d)", seed, i, d, s.Tamper, prev)
			}
			prev = d
		}
	}
}

// TestNamesMatchBenchmarkJSON keeps the metric and workload names the
// program prints in step with the spec at the repository root.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var e2e, layer, wls []string
	for _, e := range spec.EndToEnd {
		e2e = append(e2e, e.Name)
	}
	for _, p := range spec.PerLayer {
		layer = append(layer, p.Name)
	}
	for _, w := range spec.Workloads {
		wls = append(wls, w.Name)
	}
	var have []string
	for _, w := range workloads() {
		have = append(have, w.Name)
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{{"end_to_end", e2e, endToEnd}, {"per_layer", layer, perLayer}, {"workloads", wls, have}} {
		g, w := append([]string(nil), c.got...), append([]string(nil), c.want...)
		sort.Strings(g)
		sort.Strings(w)
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: BENCHMARK.json has %v, program has %v", c.what, g, w)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestVerdictRules(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		head []float64
		want string
	}{
		{scale(1.0), "unchanged"},
		{scale(0.8), "improved"},
		{scale(1.3), "worse"},
		{[]float64{50, 150, 100, 60, 140, 100, 70, 130, 90, 110}, "unresolved"},
	} {
		if got := verdict(base, c.head, seeds, seeds, true, 0.1); got != c.want {
			t.Errorf("head %v: verdict %s, want %s", c.head, got, c.want)
		}
	}
}

// runShort drives a real stack: set-up with its warm-up, then sweeps
// measured sweeps. It returns the checked loop.
func runShort(t *testing.T, w Workload, seed int64, sweeps int) (*loop, *Stack) {
	t.Helper()
	s := NewSchedule(w, seed)
	l := &loop{}
	k, _, err := setUp(w, s, filepath.Join(t.TempDir(), "state"), nil, l)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= sweeps; i++ {
		in := s.Sweep(i)
		if in.Drift != nil {
			if err := k.InjectDrift(in.Drift); err != nil {
				t.Fatal(err)
			}
		}
		res, err := k.Sweep(in)
		if err != nil {
			t.Fatal(err)
		}
		l.results = append(l.results, res)
		l.account(w, s, i, res)
	}
	return l, k
}

// TestSameSeedSameVerdicts: two runs of one seed produce identical
// verdict sets and SweepRecord counts, and the correctness gate passes.
func TestSameSeedSameVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("drives two real fleet-delta stacks")
	}
	w := mustWorkload(t, "fleet-delta")
	var runs [][]SweepVerdicts
	for r := 0; r < 2; r++ {
		l, k := runShort(t, w, 5, 2)
		if err := k.Close(); err != nil {
			t.Fatal(err)
		}
		if len(l.wrong) > 0 || l.bad > 0 {
			t.Fatalf("run %d: wrong %v, bad devices %d", r, l.wrong, l.bad)
		}
		runs = append(runs, l.verdicts)
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		a, _ := json.Marshal(runs[0])
		b, _ := json.Marshal(runs[1])
		t.Fatalf("same seed, different outcomes:\n%s\n%s", a, b)
	}
}

// TestGateFailsOnWrongExpectation: a real sweep checked against a
// deliberately wrong expectation (a different tampered device, a
// missing drift) is reported wrong, with the devices counted bad.
func TestGateFailsOnWrongExpectation(t *testing.T) {
	w := mustWorkload(t, "link-1ms")
	w.Tamper = true
	l, k := runShort(t, w, 3, 1)
	defer k.Close()
	if len(l.wrong) > 0 {
		t.Fatalf("honest expectation rejected: %v", l.wrong)
	}
	s := NewSchedule(w, 3)
	res := l.results[len(l.results)-1]
	good := s.Expectation(w, 1)
	if out := Check(good, res.Record, res.Snap); len(out.Wrong) != 0 {
		t.Fatalf("honest expectation rejected: %v", out.Wrong)
	}
	bad := good
	bad.Compromised = []uint64{s.Tamper%uint64(w.Fleet) + 1}
	out := Check(bad, res.Record, res.Snap)
	if len(out.Wrong) == 0 || out.BadDevices != 2 {
		t.Fatalf("wrong tamper target not caught: %+v", out)
	}
	bad = good
	bad.Unexpected = []uint64{1}
	if out := Check(bad, res.Record, res.Snap); len(out.Wrong) == 0 {
		t.Fatal("missing drift not caught")
	}
}

// TestRunWritesResultAndSpans runs the traced path end to end on the
// small workload and checks every per-layer metric is reported.
func TestRunWritesResultAndSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a traced link-1ms workload")
	}
	w := mustWorkload(t, "link-1ms")
	dir := t.TempDir()
	start := time.Now()
	res, err := Run(w, 9, 2, true, filepath.Join(dir, "work"), filepath.Join(dir, "out"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("traced run incorrect: %v", res.Wrong)
	}
	for _, name := range perLayer {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("traced run lacks %s", name)
		}
	}
	if fi, err := os.Stat(res.SpanFile); err != nil || fi.Size() == 0 {
		t.Fatalf("span file: %v", err)
	}
	t.Logf("traced link-1ms run took %v", time.Since(start))
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// quartiles returns Q1, median and Q3 with the "exclusive" method of
// Python's statistics.quantiles(values, n=4) — the spread rule the
// benchmark's acceptance is stated in.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), median(s), q(3)
}

// benchSpec is the part of BENCHMARK.json the compare mode needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchSpec
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// resultSet is workload → metric → values, plus the seeds per workload
// (aligned with the values) for pairing.
type resultSet struct {
	values map[string]map[string][]float64
	seeds  map[string]map[string][]int64
}

// loadResults reads every untraced result file in dir.
func loadResults(dir string) (*resultSet, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	rs := &resultSet{values: map[string]map[string][]float64{}, seeds: map[string]map[string][]int64{}}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r Result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Meta.Trace || r.Meta.Workload.Name == "" {
			continue
		}
		wl := r.Meta.Workload.Name
		if rs.values[wl] == nil {
			rs.values[wl] = map[string][]float64{}
			rs.seeds[wl] = map[string][]int64{}
		}
		for name, m := range r.Metrics {
			rs.values[wl][name] = append(rs.values[wl][name], m.Value)
			rs.seeds[wl][name] = append(rs.seeds[wl][name], r.Meta.Seed)
		}
	}
	if len(rs.values) == 0 {
		return nil, fmt.Errorf("%s: no untraced result files", dir)
	}
	return rs, nil
}

// verdict classifies head against base for one metric: improved when
// head wins at least nine tenths of the pairs and the medians differ by
// more than the base's own quartile spread; unresolved when either
// side's spread exceeds the bound; worse when head's median is worse by
// more than the bound; unchanged otherwise.
func verdict(base, head []float64, baseSeeds, headSeeds []int64, lowerBetter bool, bound float64) string {
	bq1, bm, bq3 := quartiles(base)
	hq1, hm, hq3 := quartiles(head)
	better := func(h, b float64) bool {
		if lowerBetter {
			return h < b
		}
		return h > b
	}
	// Pair runs by seed where both sides have it; otherwise every head
	// run against every base run.
	wins, pairs := 0, 0
	byseed := map[int64]float64{}
	for i, s := range baseSeeds {
		byseed[s] = base[i]
	}
	for i, s := range headSeeds {
		if b, ok := byseed[s]; ok {
			pairs++
			if better(head[i], b) {
				wins++
			}
		}
	}
	if pairs == 0 {
		for _, h := range head {
			for _, b := range base {
				pairs++
				if better(h, b) {
					wins++
				}
			}
		}
	}
	if bm == 0 {
		return "unresolved"
	}
	spread := max((bq3-bq1)/bm, (hq3-hq1)/bm)
	delta := (hm - bm) / bm
	if lowerBetter {
		delta = -delta
	}
	switch {
	case better(hm, bm) && 10*wins >= 9*pairs && abs(hm-bm) > bq3-bq1:
		return "improved"
	case spread > bound:
		return "unresolved"
	case delta < -bound:
		return "worse"
	default:
		return "unchanged"
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Compare prints, per workload and end-to-end metric, both sides'
// median and quartiles, the change as a share of the base median, and
// the verdict under the bounds recorded in the benchmark spec.
func Compare(w io.Writer, specPath, baseDir, headDir string) error {
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	base, err := loadResults(baseDir)
	if err != nil {
		return err
	}
	head, err := loadResults(headDir)
	if err != nil {
		return err
	}
	var wls []string
	for wl := range base.values {
		if head.values[wl] != nil {
			wls = append(wls, wl)
		}
	}
	sort.Strings(wls)
	fmt.Fprintf(w, "%-12s %-18s %-40s %-40s %-24s %s\n", "workload", "metric", "base median [q1, q3] (n)", "head median [q1, q3] (n)", "change (of base)", "verdict")
	for _, wl := range wls {
		for _, e := range spec.EndToEnd {
			b, h := base.values[wl][e.Name], head.values[wl][e.Name]
			if len(b) == 0 || len(h) == 0 {
				fmt.Fprintf(w, "%-12s %-18s missing on one side\n", wl, e.Name)
				continue
			}
			bq1, bm, bq3 := quartiles(b)
			hq1, hm, hq3 := quartiles(h)
			v := verdict(b, h, base.seeds[wl][e.Name], head.seeds[wl][e.Name], e.Better == "lower", e.Bound)
			change := "n/a"
			if bm != 0 {
				change = fmt.Sprintf("%+.2f%% of %.4g %s", 100*(hm-bm)/bm, bm, e.Unit)
			}
			fmt.Fprintf(w, "%-12s %-18s %-40s %-40s %-24s %s (bound %.0f%%)\n", wl, e.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", bm, bq1, bq3, len(b)),
				fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", hm, hq1, hq3, len(h)),
				change, v, 100*e.Bound)
		}
	}
	return nil
}

// Spread prints each end-to-end metric's quartile spread as a share of
// its median over one result set, next to the metric's bound — the
// steadiness check a new benchmark or machine must pass.
func Spread(w io.Writer, specPath, dir string) error {
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	rs, err := loadResults(dir)
	if err != nil {
		return err
	}
	var wls []string
	for wl := range rs.values {
		wls = append(wls, wl)
	}
	sort.Strings(wls)
	for _, wl := range wls {
		for _, e := range spec.EndToEnd {
			v := rs.values[wl][e.Name]
			q1, m, q3 := quartiles(v)
			ratio := 0.0
			if m != 0 {
				ratio = (q3 - q1) / m
			}
			flag := ""
			if ratio > e.Bound/3 {
				flag = "  above a third of the bound"
			}
			fmt.Fprintf(w, "%-12s %-18s n=%-3d median %-10.4g spread %6.2f%% (bound %.0f%%)%s\n",
				wl, e.Name, len(v), m, 100*ratio, 100*e.Bound, strings.TrimRight(flag, " "))
		}
	}
	return nil
}

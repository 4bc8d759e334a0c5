// Command benchpairs reduces alternating parent/change runs of one
// benchmark workload to the counting rule of ROADMAP.md: per end-to-end
// metric, each pair's ratio (change / parent), the median ratio and its
// quartiles, each side's median and quartiles, the pairs the change
// wins, and a verdict. `make pairs` runs the pairs and calls it:
//
//	benchpairs -bench BENCHMARK.json -out pairs.json base-0.json change-0.json base-1.json change-1.json …
//
// The arguments are `bash benchmark/run.sh --workload W -out F` results,
// parent first in each pair. The verdicts, d being the change's median
// against the parent's as a share that is positive when worse:
//
//	improved      the change wins ≥ 9 of 10 pairs (ties count for
//	              neither) and -d exceeds the parent's quartile spread
//	regressed     d exceeds the metric's bound and the parent's spread
//	unresolved    the parent's spread exceeds |d|
//	within-bound  otherwise
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// metricDef is one end-to-end metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// result is what the reducer reads of one run's result file.
type result struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	FailRatio float64 `json:"fail_ratio"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// quart is a sample's median and quartiles.
type quart struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// metricPairs is one metric's reduction.
type metricPairs struct {
	Unit    string    `json:"unit"`
	Better  string    `json:"better"`
	Bound   float64   `json:"bound"`
	Ratios  []float64 `json:"ratios"` // change / parent, pair by pair
	Ratio   quart     `json:"ratio"`
	Base    quart     `json:"base"`
	Change  quart     `json:"change"`
	Wins    int       `json:"wins"` // pairs the change reads better in
	Verdict string    `json:"verdict"`
}

// reduction is the output file.
type reduction struct {
	Workload  string                  `json:"workload"`
	Pairs     int                     `json:"pairs"`
	Seeds     []int64                 `json:"seeds"`
	Metrics   map[string]*metricPairs `json:"metrics"`
	FailRatio struct {
		Base   []float64 `json:"base"`
		Change []float64 `json:"change"`
	} `json:"fail_ratio"`
}

func main() {
	bench := flag.String("bench", "BENCHMARK.json", "the benchmark contract naming the end-to-end metrics")
	out := flag.String("out", "", "write the reduction to this JSON file")
	flag.Parse()
	if err := run(os.Stdout, *bench, *out, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(2)
	}
}

func run(w io.Writer, benchPath, out string, files []string) error {
	if len(files) == 0 || len(files)%2 != 0 {
		return errors.New("want parent/change result files in pairs")
	}
	var bench struct {
		EndToEnd []metricDef `json:"end_to_end"`
	}
	if err := readJSON(benchPath, &bench); err != nil {
		return err
	}
	runs := make([]result, len(files))
	for i, f := range files {
		if err := readJSON(f, &runs[i]); err != nil {
			return err
		}
		if runs[i].Workload != runs[0].Workload {
			return fmt.Errorf("%s is a %s run, %s a %s run", f, runs[i].Workload, files[0], runs[0].Workload)
		}
	}
	red, err := reduce(bench.EndToEnd, runs)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s, %d pairs, seeds %v\n", red.Workload, red.Pairs, red.Seeds)
	for _, def := range bench.EndToEnd {
		m := red.Metrics[def.Name]
		fmt.Fprintf(w, "%-20s %-9s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  ratio %.4f [%.4f, %.4f]  wins %d/%d  %s\n",
			def.Name, def.Unit, m.Base.Median, m.Base.Q1, m.Base.Q3, m.Change.Median, m.Change.Q1, m.Change.Q3,
			m.Ratio.Median, m.Ratio.Q1, m.Ratio.Q3, m.Wins, red.Pairs, m.Verdict)
	}
	fmt.Fprintf(w, "%-20s %-9s parent %v  change %v\n", "fail_ratio", "fraction", red.FailRatio.Base, red.FailRatio.Change)
	if out == "" {
		return nil
	}
	b, err := json.MarshalIndent(red, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	return nil
}

// reduce pairs runs[2i] (the parent) with runs[2i+1] (the change).
func reduce(defs []metricDef, runs []result) (*reduction, error) {
	red := &reduction{Workload: runs[0].Workload, Pairs: len(runs) / 2, Metrics: map[string]*metricPairs{}}
	for i := 0; i < len(runs); i += 2 {
		red.Seeds = append(red.Seeds, runs[i].Seed)
		red.FailRatio.Base = append(red.FailRatio.Base, runs[i].FailRatio)
		red.FailRatio.Change = append(red.FailRatio.Change, runs[i+1].FailRatio)
	}
	for _, def := range defs {
		m := &metricPairs{Unit: def.Unit, Better: def.Better, Bound: def.Bound}
		var base, change []float64
		for i := 0; i < len(runs); i += 2 {
			a, okA := runs[i].Metrics[def.Name]
			b, okB := runs[i+1].Metrics[def.Name]
			if !okA || !okB {
				return nil, fmt.Errorf("pair %d (seed %d) lacks %s", i/2, runs[i].Seed, def.Name)
			}
			base, change = append(base, a.Value), append(change, b.Value)
			m.Ratios = append(m.Ratios, b.Value/a.Value)
			if better(def, b.Value, a.Value) {
				m.Wins++
			}
		}
		m.Ratio, m.Base, m.Change = quartiles(m.Ratios), quartiles(base), quartiles(change)
		m.Verdict = verdict(def, m, red.Pairs)
		red.Metrics[def.Name] = m
	}
	return red, nil
}

// better reports whether x reads better than y.
func better(def metricDef, x, y float64) bool {
	if def.Better == "lower" {
		return x < y
	}
	return x > y
}

// verdict applies the counting rule to one metric of n pairs.
func verdict(def metricDef, m *metricPairs, n int) string {
	if m.Base.Median == 0 {
		return "unresolved"
	}
	d := m.Change.Median/m.Base.Median - 1
	if def.Better != "lower" {
		d = -d
	}
	spread := (m.Base.Q3 - m.Base.Q1) / math.Abs(m.Base.Median)
	switch {
	case 10*m.Wins >= 9*n && -d > spread:
		return "improved"
	case d > def.Bound && d > spread:
		return "regressed"
	case spread > math.Abs(d):
		return "unresolved"
	}
	return "within-bound"
}

// quartiles matches Python's statistics.quantiles(v, n=4), as the
// benchmark's ledger does.
func quartiles(v []float64) quart {
	x := slices.Clone(v)
	slices.Sort(x)
	n := len(x)
	if n < 2 {
		return quart{x[0], x[0], x[0]}
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return quart{q(1), q(2), q(3)}
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Series is one metric over the runs of a ledger: every value, and the
// median and quartiles the comparison works from.
type Series struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// quartiles matches Python's statistics.quantiles(values, n=4), which
// is what the driver computes spreads with.
func quartiles(v []float64) (q1, q2, q3 float64) {
	if len(v) < 2 {
		m := median(v)
		return m, m, m
	}
	x := sorted(v)
	ld := len(x)
	q := func(i int) float64 {
		j := i * (ld + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*(ld+1) - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func newSeries(unit string, values []float64) Series {
	q1, _, q3 := quartiles(values)
	return Series{Unit: unit, Median: median(values), Q1: q1, Q3: q3, Values: values}
}

// spread is the interquartile range as a share of the median.
func (s Series) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// WorkloadLedger aggregates one workload's runs.
type WorkloadLedger struct {
	Untraced  map[string]Series `json:"untraced"` // end-to-end metrics (plus the layer figures an untraced run yields anyway)
	Traced    map[string]Series `json:"traced,omitempty"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	FailRatio float64           `json:"fail_ratio"`
	Phases    []Phase           `json:"phases"` // of the first untraced run
	Constants map[string]int64  `json:"constants"`
	Notes     map[string]Metric `json:"notes,omitempty"`
	Problems  []string          `json:"problems,omitempty"`
}

// Ledger is the file -out writes when all workloads run: the committed
// trajectory's unit (benchmark/ledger/BENCH_prN.json).
type Ledger struct {
	Schema    string                     `json:"schema"`
	Meta      map[string]string          `json:"meta"`
	Findings  []string                   `json:"findings,omitempty"`
	Seeds     []int64                    `json:"seeds"`
	Seconds   int                        `json:"seconds"`
	Workloads map[string]*WorkloadLedger `json:"workloads"`
}

func machineMeta(root string) map[string]string {
	m := map[string]string{
		"go":        runtime.Version(),
		"nproc":     strconv.Itoa(runtime.NumCPU()),
		"P":         strconv.Itoa(procs()),
		"generated": time.Now().UTC().Format(time.RFC3339),
		"commit":    "unknown",
		"cpu_model": "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m["cpu_model"] = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		m["commit"] = strings.TrimSpace(string(out))
	}
	return m
}

// runAll runs every workload `runs` times (seeds S, S+1, …), each as a
// child process of this same binary so that a ledger entry is measured
// exactly as the driver measures it: fresh process, fresh daemons,
// clean peak RSS. With traced, one traced run per workload follows.
func runAll(seed int64, runs, seconds int, traced bool, out, scaleName string) (int, error) {
	root, err := findRoot()
	if err != nil {
		return 2, err
	}
	exe, err := os.Executable()
	if err != nil {
		return 2, err
	}
	tmpParent := filepath.Join(root, buildDir, "tmp")
	if err := os.MkdirAll(tmpParent, 0o755); err != nil {
		return 2, err
	}
	tmp, err := os.MkdirTemp(tmpParent, "ledger-")
	if err != nil {
		return 2, err
	}
	defer os.RemoveAll(tmp)

	child := func(w string, s int64, trace int) (*Result, error) {
		path := filepath.Join(tmp, "result.json")
		cmd := exec.Command(exe, "-workload", w, "-seed", strconv.FormatInt(s, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-scale", scaleName, "-out", path)
		cmd.Dir = root
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("workload %s seed %d: %v", w, s, err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r Result
		return &r, json.Unmarshal(b, &r)
	}

	led := &Ledger{Schema: "delrep-bench/1", Meta: machineMeta(root), Seconds: seconds, Workloads: map[string]*WorkloadLedger{}}
	values := map[string]map[string][]float64{} // workload -> metric -> values
	digests := map[int64]map[string]string{}    // seed -> spec -> digest, across workloads
	bad := 0
	fold := func(wl *WorkloadLedger, r *Result) {
		wl.Attempted += r.Attempted
		wl.Failed += r.Failed
		wl.Problems = append(wl.Problems, r.Problems...)
		if !r.Correct {
			bad++
		}
		// Serve and fleet get identical specs; so must their answers be.
		if digests[r.Seed] == nil {
			digests[r.Seed] = map[string]string{}
		}
		for name, d := range r.Digests {
			if prev, ok := digests[r.Seed][name]; ok && prev != d {
				wl.Problems = append(wl.Problems, fmt.Sprintf("%s: digest %s here, %s on another workload", name, d, prev))
				wl.Failed++
				bad++
			}
			digests[r.Seed][name] = d
		}
	}
	for i := 0; i < runs; i++ {
		s := seed + int64(i)
		led.Seeds = append(led.Seeds, s)
		for _, w := range workloadNames {
			r, err := child(w, s, 0)
			if err != nil {
				return 2, err
			}
			wl := led.Workloads[w]
			if wl == nil {
				wl = &WorkloadLedger{Untraced: map[string]Series{}, Phases: r.Phases, Constants: r.Constants, Notes: map[string]Metric{}}
				led.Workloads[w] = wl
				values[w] = map[string][]float64{}
			}
			fold(wl, r)
			for name, m := range r.Metrics {
				values[w][name] = append(values[w][name], m.Value)
			}
			for name, m := range r.Notes {
				wl.Notes[name] = m // the last run's; notes are never compared
			}
		}
	}
	for w, wl := range led.Workloads {
		for name, v := range values[w] {
			wl.Untraced[name] = newSeries(unitOf(name), v)
		}
	}
	if traced {
		for _, w := range workloadNames {
			r, err := child(w, seed, 1)
			if err != nil {
				return 2, err
			}
			wl := led.Workloads[w]
			wl.Traced = map[string]Series{}
			fold(wl, r)
			for name, m := range r.Metrics {
				wl.Traced[name] = newSeries(m.Unit, []float64{m.Value})
			}
			for name, m := range r.Notes {
				wl.Notes[name] = m
			}
		}
	}
	for _, wl := range led.Workloads {
		if wl.Attempted > 0 {
			wl.FailRatio = float64(wl.Failed) / float64(wl.Attempted)
		}
	}

	printLedger(led)
	if out != "" {
		if err := writeJSON(out, led); err != nil {
			return 2, err
		}
	}
	if bad > 0 {
		return 1, fmt.Errorf("%d run(s) failed a correctness check", bad)
	}
	return 0, nil
}

// printLedger prints every end-to-end metric by name with its unit,
// each workload in its own row.
func printLedger(led *Ledger) {
	fmt.Printf("\n== summary: medians over %d run(s) of %d s, P=%s, %s, %s\n",
		len(led.Seeds), led.Seconds, led.Meta["P"], led.Meta["cpu_model"], led.Meta["go"])
	fmt.Printf("%-13s %-22s %14s %-9s %8s %5s\n", "workload", "metric", "median", "unit", "spread", "runs")
	for _, w := range workloadNames {
		wl := led.Workloads[w]
		if wl == nil {
			continue
		}
		for _, def := range endToEnd {
			s := wl.Untraced[def.Name]
			fmt.Printf("%-13s %-22s %14.6g %-9s %7.1f%% %5d\n", w, def.Name, s.Median, s.Unit, 100*s.spread(), len(s.Values))
		}
		fmt.Printf("%-13s %-22s %14.6g %-9s (%d failed of %d attempted)\n", w, "fail_ratio", wl.FailRatio, "fraction", wl.Failed, wl.Attempted)
	}
}

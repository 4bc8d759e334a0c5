package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors the driver's contract file.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestCatalogueMatchesContract: BENCHMARK.json and the catalogue in
// catalog.go name the same workloads and metrics, in the same order,
// with the same units, directions and bounds.
func TestCatalogueMatchesContract(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d chars), want %q with a reason of at most 200", i, w.Name, len(w.Why), workloadNames[i])
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the catalogue %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, catalogue has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || !name.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("end_to_end[%d] %q: bad bound, name or duplicate", i, m.Name)
		}
		seen[m.Name] = true
	}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, catalogue has %+v", i, m, d)
		}
		if !name.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("per_layer[%d] %q: bad name or duplicate", i, m.Name)
		}
		seen[m.Name] = true
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 || len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", spec.RunSeconds, spec.Paths)
	}
}

// smoke runs one workload at the smoke scale.
func smoke(t *testing.T, e *env, workload string, seed int64, traced bool, golden map[string]string) *Result {
	t.Helper()
	res, err := runWorkload(e, workload, seed, 1, traced, smokeScale(traced), golden, filepath.Join(e.tmp, "trace-"+workload+".json"))
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

// TestSmoke is a minimal pass of all five workloads, untraced and
// traced: every end-to-end metric comes out of every workload with a
// unit and a non-zero value, every per-layer metric comes out of the
// traced run of at least one workload, and nothing fails.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binaries and starts daemons")
	}
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()

	emitted := map[string]int{} // per-layer metric -> traced runs that measured it
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			res := smoke(t, e, w, 1, traced, nil)
			if res.FailRatio != 0 || !res.Correct {
				t.Errorf("%s traced=%v: fail_ratio %g: %v\n%s", w, traced, res.FailRatio, res.Problems, res.Diag)
			}
			for _, p := range res.Phases {
				if p.Attempted != p.Succeeded+p.Failed || p.Attempted == 0 {
					t.Errorf("%s phase %s: attempted %d, succeeded %d, failed %d", w, p.Name, p.Attempted, p.Succeeded, p.Failed)
				}
			}
			if _, err := driverLine(res); err != nil {
				t.Errorf("%s traced=%v: %v", w, traced, err)
			}
			if !traced {
				for _, def := range endToEnd {
					if m := res.Metrics[def.Name]; m.Unit != def.Unit || m.Value <= 0 {
						t.Errorf("%s: %s = %+v, want a positive value in %s", w, def.Name, m, def.Unit)
					}
				}
				continue
			}
			for _, def := range perLayer {
				if m, ok := res.Metrics[def.Name]; ok {
					emitted[def.Name]++
					if m.Unit != def.Unit {
						t.Errorf("%s: %s has unit %q, want %q", w, def.Name, m.Unit, def.Unit)
					}
				}
			}
			if _, err := os.Stat(filepath.Join(e.tmp, "trace-"+w+".json")); err != nil {
				t.Errorf("%s: no Chrome trace written: %v", w, err)
			}
		}
	}
	for _, def := range perLayer {
		if emitted[def.Name] == 0 {
			t.Errorf("per-layer metric %s came out of no workload's traced run", def.Name)
		}
	}
}

// TestWrongGoldenFails: a golden digest that does not match makes the
// run incorrect, and a held-out seed passes the seed-independent checks
// (repetitions agree, parallel equals serial, hot equals cold).
func TestWrongGoldenFails(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binaries and starts daemons")
	}
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()

	c := simCases(1, smokeScale(false))[0]
	res := smoke(t, e, wlSimSerial, 1, false, map[string]string{c.name: "0000000000000000"})
	if res.FailRatio <= 0 || res.Correct {
		t.Errorf("a wrong golden digest left fail_ratio at %g (correct=%v)", res.FailRatio, res.Correct)
	}
	for _, w := range workloadNames {
		if res := smoke(t, e, w, 7, false, nil); res.FailRatio != 0 {
			t.Errorf("%s on the held-out seed 7: fail_ratio %g: %v", w, res.FailRatio, res.Problems)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(v, n=4) gives, since the driver uses that.
func TestQuartilesMatchPython(t *testing.T) {
	v := []float64{1, 2, 4, 7, 11, 16, 22, 29, 37, 46}
	q1, q2, q3 := quartiles(v)
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %g %g %g, want 3.5 13.5 31", q1, q2, q3)
	}
}

// TestVerdict pins the comparison rule on the four outcomes.
func TestVerdict(t *testing.T) {
	def := metricDef{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10}
	steady := func(m float64) Series { return newSeries("s", []float64{m * 0.99, m, m * 1.01, m, m}) }
	noisy := newSeries("s", []float64{7, 9, 10, 11, 14})
	for _, tc := range []struct {
		base, next Series
		want       string
	}{
		{steady(10), steady(10.5), "within-bound"},
		{steady(10), steady(11.5), "regressed"},
		{steady(10), steady(9), "improved"},
		{noisy, steady(10.5), "unresolved"},
		{noisy, steady(5), "improved"},
	} {
		if _, got := verdict(def, tc.base, tc.next); got != tc.want {
			t.Errorf("verdict(%v -> %v) = %s, want %s", tc.base.Values, tc.next.Values, got, tc.want)
		}
	}
}

// TestUndisturbed: per segment the fastest repetition counts, on each
// clock separately, and a repetition cut short by a failure is left out.
func TestUndisturbed(t *testing.T) {
	reps := []simRun{
		{segs: []segment{{1.0, 0.9}, {2.0, 2.0}, {0.1, 0.1}}},
		{segs: []segment{{1.5, 0.8}, {1.0, 1.1}, {0.3, 0.2}}},
		{segs: []segment{{0.1, 0.1}}}, // failed early
	}
	got := undisturbed(reps)
	if want := (segment{1.0 + 1.0 + 0.1, 0.8 + 1.1 + 0.1}); got != want {
		t.Errorf("undisturbed = %+v, want %+v", got, want)
	}
}

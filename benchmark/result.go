package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Phase is the operation accounting of one timed phase. A failed,
// refused, timed-out or wrongly answered operation counts as failed
// (and so misses every latency percentile).
type Phase struct {
	Name      string  `json:"name"`
	Attempted int     `json:"attempted"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"`
	WallS     float64 `json:"wall_s"`
}

// Result is everything one run of one workload produced. Metrics holds
// catalogue names only; the driver line is the subset BENCHMARK.json
// lists for the run's trace mode.
type Result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Traced    bool              `json:"traced"`
	Constants map[string]int64  `json:"constants"`
	Phases    []Phase           `json:"phases"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	FailRatio float64           `json:"fail_ratio"`
	Correct   bool              `json:"correct"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]Metric `json:"metrics"`
	// Digests maps a spec name to the determinism digest the workload
	// obtained for it, so runs of different workloads can be compared.
	Digests map[string]string `json:"digests,omitempty"`
	// Notes are printed-but-ungated numbers (p99.9, self times).
	Notes map[string]Metric `json:"notes,omitempty"`
	// Diag is daemon stderr kept for the failure report only.
	Diag string `json:"-"`

	nProblems int // failed checks, including those past the Problems cap
}

func newResult(workload string, seed int64, seconds int, traced bool) *Result {
	return &Result{
		Workload: workload, Seed: seed, Seconds: seconds, Traced: traced,
		Constants: map[string]int64{},
		Metrics:   map[string]Metric{},
		Digests:   map[string]string{},
		Notes:     map[string]Metric{},
	}
}

// set records a catalogue metric; an unknown name is a bug in the
// benchmark, not in the program under test.
func (r *Result) set(name string, v float64) {
	u := unitOf(name)
	if u == "" {
		panic("benchmark: metric " + name + " is not in the catalogue")
	}
	r.Metrics[name] = Metric{Value: v, Unit: u}
}

func (r *Result) note(name string, v float64, unit string) {
	r.Notes[name] = Metric{Value: v, Unit: unit}
}

// phase appends one phase's accounting.
func (r *Result) phase(name string, attempted, failed int, wall time.Duration) {
	r.Phases = append(r.Phases, Phase{
		Name: name, Attempted: attempted, Succeeded: attempted - failed, Failed: failed,
		WallS: wall.Seconds(),
	})
}

// problem records a failed correctness check as one failed operation
// of the named phase's kind.
func (r *Result) problem(format string, args ...any) {
	r.nProblems++
	if len(r.Problems) < maxProblems {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// maxProblems bounds the retained messages; a hot phase that fails
// wholesale would otherwise keep one per request.
const maxProblems = 20

// finish totals the phases. Every failed check that is not already a
// failed operation adds one failed operation, so a wrong answer can
// never leave fail_ratio at 0.
func (r *Result) finish() {
	r.Attempted, r.Failed = 0, 0
	for _, p := range r.Phases {
		r.Attempted += p.Attempted
		r.Failed += p.Failed
	}
	if r.Failed < r.nProblems {
		r.Failed = r.nProblems
	}
	if r.Attempted < r.Failed {
		r.Attempted = r.Failed
	}
	if r.Attempted > 0 {
		r.FailRatio = float64(r.Failed) / float64(r.Attempted)
	}
	r.Correct = r.Failed == 0
}

// --- small statistics -------------------------------------------------

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-quantile (0..1) by nearest rank on a copy.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// pct returns 100·(a−b)/b, the relative excess of a over b.
func pct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * (a - b) / b
}

// tally counts the checks of a traced run's layer measurements and
// files them as one phase.
type tally struct {
	res               *Result
	scope             string
	start             time.Time
	attempted, failed int
}

func newTally(res *Result, scope string) *tally {
	return &tally{res: res, scope: scope, start: time.Now()}
}

// count records one check whose failure has already been reported.
func (t *tally) count(bad bool) {
	t.attempted++
	if bad {
		t.failed++
	}
}

// ok records one check and reports its error, if any, as a problem.
func (t *tally) ok(what string, err error) bool {
	if err != nil {
		t.res.problem("%s: %s: %v", t.scope, what, err)
	}
	t.count(err != nil)
	return err == nil
}

func (t *tally) done(phase string) {
	t.res.phase(phase, t.attempted, t.failed, time.Since(t.start))
}

// Package experiment is the paper's evaluation, declared once. Every
// table and figure is a Figure value (Figures lists them in paper
// order); a Plan stamps the driver-wide windows and seed onto the runs
// a figure declares; a Report — tables and note lines — comes back for
// the caller to render. cmd/expdriver prints them, delrepsim -sweep
// runs one more (Sweep), the root benchmarks time them, and the golden
// test holds them to experiments_output.txt.
package experiment

import (
	"fmt"
	"io"
	"strings"
	"time"

	"delrep/internal/config"
	"delrep/internal/runner"
	"delrep/internal/stats"
	"delrep/internal/workload"
)

// Figure is one reproducible table or figure of the evaluation. Build
// declares the figure's whole run set on the plan before the function
// it returns reads any result — which is what keeps a report
// byte-identical at any -j worker count and any cache state.
type Figure struct {
	Name  string
	About string
	Build func(*Plan) func() Report
}

// Report is an evaluated figure: its tables, then its note lines (the
// paper's reference values, "measured:" summaries, narratives).
type Report struct {
	Tables []*stats.Table
	Notes  []string
}

// String renders the report as expdriver prints it: each table
// followed by a blank line, then one line per note.
func (r Report) String() string {
	var b strings.Builder
	for _, t := range r.Tables {
		fmt.Fprintln(&b, t)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(&b, n)
	}
	return b.String()
}

// Plan fronts the shared execution engine for the figures: it holds
// the driver-wide windows, seed and workload set, and accounts for
// what each evaluated figure consumed.
type Plan struct {
	Warm    int64
	Measure int64
	Seed    int64
	Quick   bool
	// Log receives progress of observed runs, per-figure accounting
	// and the exit summary (the CLIs' stderr); NewPlan discards it.
	Log io.Writer

	eng      *runner.Engine
	observed int // observer-attached replays delivered (simulated or cached)
	obsSims  int // observer-attached replays that actually simulated
	failures []failedRun
}

// failedRun is a failed run and the figure that consumed it, for the
// exit summary: which spec failed, on which worker, and why.
type failedRun struct {
	figure string
	runner.Run
}

// NewPlan builds a plan on an engine; quick mode shrinks windows and
// workloads.
func NewPlan(quick bool, seed int64, eng *runner.Engine) *Plan {
	p := &Plan{Warm: 12_000, Measure: 30_000, Seed: seed, Quick: quick, Log: io.Discard, eng: eng}
	if quick {
		p.Warm, p.Measure = 5_000, 12_000
	}
	return p
}

// GPUBenches returns the benchmark set (shrunk under -quick).
func (p *Plan) GPUBenches() []string {
	if p.Quick {
		return []string{"2DCON", "HS", "BP"}
	}
	return workload.GPUNames()
}

// SubsetBenches returns a five-benchmark set spanning the workload
// characters (dense stencil, remote-miss, low-miss, write-heavy,
// LLC-friendly), used by the wide sensitivity sweeps to bound the
// number of simulations each sweep point costs.
func (p *Plan) SubsetBenches() []string {
	if p.Quick {
		return []string{"HS", "BP"}
	}
	return []string{"2DCON", "HS", "BT", "NN", "BP"}
}

// PrimaryCPU returns the first Table II co-runner of a GPU benchmark.
func PrimaryCPU(gpu string) string { return workload.TableII()[gpu][0] }

// CoRunners returns the Table II CPU benchmarks for a GPU benchmark
// (just the primary under -quick).
func (p *Plan) CoRunners(gpu string) []string {
	cpus := workload.TableII()[gpu]
	if p.Quick {
		return cpus[:1]
	}
	return cpus[:]
}

// prep stamps the driver-wide windows and seed onto a configuration.
func (p *Plan) prep(cfg config.Config) config.Config {
	cfg.WarmupCycles = p.Warm
	cfg.MeasureCycles = p.Measure
	cfg.Seed = p.Seed
	return cfg
}

// Defer declares one simulation on the engine and returns its future.
func (p *Plan) Defer(cfg config.Config, gpu, cpu string) *runner.Future {
	return p.eng.Submit(runner.Spec{Cfg: p.prep(cfg), GPU: gpu, CPU: cpu})
}

// BaseConfig returns the default configuration with scheme applied.
func BaseConfig(scheme config.Scheme) config.Config {
	cfg := config.Default()
	cfg.Scheme = scheme
	return cfg
}

// schemes in paper comparison order.
var allSchemes = []config.Scheme{
	config.SchemeBaseline, config.SchemeRP, config.SchemeDelegatedReplies,
}

// Eval builds and evaluates one figure, remembering which failed runs
// it consumed for Finish.
func (p *Plan) Eval(f Figure) Report {
	before := len(p.eng.Failures())
	rep := f.Build(p)()
	for _, run := range p.eng.Failures()[before:] {
		p.failures = append(p.failures, failedRun{f.Name, run})
	}
	return rep
}

// Render evaluates one figure and writes its section of the record to
// w: header, report, and the number of runs consumed, however they were
// obtained. What varies with -j or the cache state (simulated vs cached
// vs shared, wall time) goes to Log.
func (p *Plan) Render(w io.Writer, f Figure) {
	start := time.Now()
	c0, obs0, sims0 := p.eng.Snapshot(), p.observed, p.obsSims
	fmt.Fprintf(w, "### %s — %s\n\n", f.Name, f.About)
	rep := p.Eval(f)
	c := p.eng.Snapshot()
	obsSims := int64(p.obsSims - sims0)
	simulated := c.Executed - c0.Executed + obsSims
	disk := c.DiskHits - c0.DiskHits + int64(p.observed-obs0) - obsSims
	shared := c.MemoHits - c0.MemoHits
	fmt.Fprintf(w, "%s(%s, %d runs)\n\n", rep, f.Name, simulated+disk+shared)
	fmt.Fprintf(p.Log, "  %s: %d simulated, %d from disk cache, %d shared in-process, %s\n",
		f.Name, simulated, disk, shared, time.Since(start).Round(time.Second))
	if d := c.Failed - c0.Failed; d > 0 {
		fmt.Fprintf(p.Log, "  %s: %d simulation(s) FAILED\n", f.Name, d)
	}
}

// Finish writes the exit summary to Log — the engine's totals, then
// every failed run by figure, spec, worker and error — and returns the
// exit status: a figure built on failed runs is quietly wrong, so 1.
func (p *Plan) Finish(prog string) int {
	c := p.eng.Snapshot()
	where := "off"
	if cache := p.eng.DiskCache(); cache != nil {
		where = cache.Dir()
	}
	fmt.Fprintf(p.Log, "%s: %d simulations executed, %d disk-cache hits, %d in-process shares (-j %d, cache %s)\n",
		prog, c.Executed+int64(p.obsSims), c.DiskHits+int64(p.observed-p.obsSims), c.MemoHits,
		p.eng.Workers(), where)
	if c.Failed == 0 {
		return 0
	}
	fmt.Fprintf(p.Log, "%s: %d simulation(s) failed:\n", prog, c.Failed)
	for _, run := range p.failures {
		where := run.Worker
		if where == "" {
			where = "local"
		}
		fmt.Fprintf(p.Log, "  %s: %s+%s %s seed=%d (key %s) on %s: %v\n",
			run.figure, run.Spec.GPU, run.Spec.CPU, run.Spec.Cfg.Scheme, run.Spec.Cfg.Seed,
			runner.KeyHash(run.Spec.Cfg, run.Spec.GPU, run.Spec.CPU), where, run.Err)
	}
	return 1
}

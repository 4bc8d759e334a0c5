package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"delrep/internal/config"
	"delrep/internal/simspec"
)

// procs is P, the worker and client count of every workload:
// min(nproc, 4).
func procs() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// scale holds the repetition constants of one run. The workload, spec
// and metric lists never change with it; only how often each fixed
// unit repeats. The full scale is sized so that one workload measures
// for about `seconds` on the 2-vCPU reference sandbox (README.md has
// the arithmetic); a traced run repeats less because it measures each
// operation twice, traced and untraced.
type scale struct {
	simWarm, simMeasure int64 // sim-serial / sim-parallel windows
	serialReps          int   // interleaved repetitions of the 4 specs
	parallelPairs       int   // (serial, parallel) pairs per spec
	sweepArgs           []string
	sweepCycles         int64 // warm-up + measured cycles of one sweep simulation
	sweepRecord         bool  // the sweep is the figure set of the committed experiments_output.txt
	warmReruns          int
	jobWarm, jobMeasure int64 // serve / fleet job windows
	coldSpecs           int
	batchSize           int
	serveBatches        int
	fleetBatches        int
	setupReps           int
	verifySpecs         int // served specs re-run in-process
	microDiv            int // divides the micro-harness iteration counts (1 at full scale)
}

// iters scales a micro-harness iteration count.
func (s scale) iters(n int) int { return atLeast(10, n/s.microDiv) }

// sweepFigures is the figure set of the sweep workload: 23 distinct
// simulations, 48 in-process shares under -quick.
var sweepFigures = []string{"fig5", "fig10", "fig11", "fig12", "fig13", "fig14"}

func atLeast(min, v int) int {
	if v < min {
		return min
	}
	return v
}

func fullScale(seconds int, traced bool) scale {
	f := float64(seconds) / 20
	n := func(at20 float64, min int) int { return atLeast(min, int(at20*f+0.5)) }
	s := scale{
		simWarm: 5_000, simMeasure: 12_000,
		serialReps:    n(3, 2),
		parallelPairs: n(4, 2),
		sweepArgs:     append([]string{"-quick"}, sweepFigures...),
		sweepCycles:   17_000,
		sweepRecord:   true,
		warmReruns:    n(150, 5),
		jobWarm:       2_000, jobMeasure: 4_000,
		coldSpecs:    48,
		batchSize:    2_000,
		serveBatches: n(10, 2),
		fleetBatches: n(5, 2),
		setupReps:    7,
		verifySpecs:  4,
		microDiv:     1,
	}
	if seconds < 10 {
		// Below ten seconds the cold phase no longer fits 48 jobs; p75
		// then has fewer than ten samples beyond it.
		s.coldSpecs = atLeast(8, 48*seconds/10)
	}
	if traced {
		s.serialReps, s.parallelPairs = 1, 1
		s.warmReruns = n(30, 5)
		s.coldSpecs = atLeast(8, s.coldSpecs/4)
		s.serveBatches, s.fleetBatches = 3, 3
		s.setupReps = 1
		s.verifySpecs = 2
	}
	return s
}

// smokeScale is the minimal pass bench_test.go runs: every workload,
// phase and check, with windows and counts cut to a few seconds in all.
func smokeScale(traced bool) scale {
	s := scale{
		simWarm: 300, simMeasure: 700,
		serialReps: 2, parallelPairs: 1,
		sweepArgs:   []string{"-quick", "-warm", "200", "-cycles", "400", "fig10"},
		sweepCycles: 600,
		warmReruns:  3,
		jobWarm:     200, jobMeasure: 400,
		coldSpecs: 8, batchSize: 50, serveBatches: 2, fleetBatches: 2,
		setupReps: 1, verifySpecs: 2, microDiv: 10,
	}
	if traced {
		s.serialReps = 1
	}
	return s
}

func (s scale) constants() map[string]int64 {
	return map[string]int64{
		"P":        int64(procs()),
		"sim_warm": s.simWarm, "sim_measure": s.simMeasure,
		"serial_reps": int64(s.serialReps), "parallel_pairs": int64(s.parallelPairs),
		"warm_reruns": int64(s.warmReruns),
		"job_warm":    s.jobWarm, "job_measure": s.jobMeasure,
		"cold_specs": int64(s.coldSpecs), "batch_size": int64(s.batchSize),
		"serve_batches": int64(s.serveBatches), "fleet_batches": int64(s.fleetBatches),
		"setup_reps": int64(s.setupReps), "verify_specs": int64(s.verifySpecs),
	}
}

// simCase is one in-process simulation: a wire spec (the programs only
// ever see generated specs) and its resolved configuration.
type simCase struct {
	name string // stable, human-readable identity; keys golden digests
	tag  string // short scheme tag for metric names
	spec simspec.Spec
	cfg  config.Config
}

func (c simCase) cycles() int64 { return c.cfg.WarmupCycles + c.cfg.MeasureCycles }

func specName(s simspec.Spec) string {
	return fmt.Sprintf("%s+%s/%s/%s/w%d+%d/s%d", s.GPU, s.CPU, s.Scheme, s.Topo, s.Warmup, s.Cycles, s.Seed)
}

func mustCase(tag string, s simspec.Spec) simCase {
	cfg, norm, err := s.Resolve()
	if err != nil {
		panic(fmt.Sprintf("benchmark: generated spec does not resolve: %v", err))
	}
	return simCase{name: specName(norm), tag: tag, spec: norm, cfg: cfg}
}

// simCases generates the four sim-serial specs (sim-parallel uses the
// first two). Spec i gets seed 1000·S+i.
func simCases(seed int64, sc scale) []simCase {
	mk := func(i int64, tag, gpu, cpu, scheme, topo string) simCase {
		return mustCase(tag, simspec.Spec{
			GPU: gpu, CPU: cpu, Scheme: scheme, Topo: topo,
			Warmup: sc.simWarm, Cycles: sc.simMeasure, Seed: 1000*seed + i,
		})
	}
	return []simCase{
		mk(0, "baseline", "HS", "vips", "baseline", "mesh"),
		mk(1, "delegated", "HS", "vips", "delegated", "mesh"),
		mk(2, "rp", "HS", "vips", "rp", "mesh"),
		mk(3, "dragonfly", "BP", "blackscholes", "delegated", "dragonfly"),
	}
}

// jobCases generates the distinct served specs of serve and fleet:
// HS+vips, baseline and delegated alternating, seed 1000·S+i.
func jobCases(seed int64, sc scale) []simCase {
	out := make([]simCase, sc.coldSpecs)
	for i := range out {
		scheme := "baseline"
		if i%2 == 1 {
			scheme = "delegated"
		}
		out[i] = mustCase(scheme, simspec.Spec{
			GPU: "HS", CPU: "vips", Scheme: scheme,
			Warmup: sc.jobWarm, Cycles: sc.jobMeasure, Seed: 1000*seed + int64(i),
		})
	}
	return out
}

// hotOrder is the seeded shuffled request order of a hot phase: n
// requests over nspecs specs, every spec equally often (±1).
func hotOrder(seed int64, nspecs, n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i % nspecs
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// sample picks k distinct indices below n from the seeded PRNG.
func sample(seed int64, n, k int) []int {
	if k > n {
		k = n
	}
	return rand.New(rand.NewSource(seed)).Perm(n)[:k]
}

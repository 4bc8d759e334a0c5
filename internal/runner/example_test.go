package runner_test

import (
	"fmt"

	"delrep/internal/config"
	"delrep/internal/runner"
)

// ExampleEngine submits a figure's full run set up front, then waits
// on the futures in declaration order — the pattern every
// cmd/expdriver figure uses. The worker count changes only wall-clock
// time, never the delivered results or their order; duplicate
// declarations (here, the shared baseline) are simulated once.
func ExampleEngine() {
	eng := runner.New(runner.Options{Workers: 4})

	var futs []*runner.Future
	for _, scheme := range []config.Scheme{
		config.SchemeDelegatedReplies, config.SchemeBaseline, config.SchemeBaseline,
	} {
		cfg := config.Default()
		cfg.Scheme = scheme
		cfg.WarmupCycles, cfg.MeasureCycles = 300, 800 // example-sized windows
		futs = append(futs, eng.Submit(runner.Spec{Cfg: cfg, GPU: "HS", CPU: "vips"}))
	}

	var runs []runner.Run
	for _, f := range futs { // declaration order, regardless of completion order
		runs = append(runs, f.Wait())
	}
	c := eng.Snapshot()
	fmt.Printf("delivered %d runs (%d simulated, %d shared)\n",
		len(runs), c.Executed, c.MemoHits)
	fmt.Printf("schemes: %s, %s, %s\n",
		runs[0].Spec.Cfg.Scheme, runs[1].Spec.Cfg.Scheme, runs[2].Spec.Cfg.Scheme)
	// Output:
	// delivered 3 runs (2 simulated, 1 shared)
	// schemes: DelegatedReplies, Baseline, Baseline
}

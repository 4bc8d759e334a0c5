package experiment

import (
	"fmt"

	"delrep/internal/runner"
	"delrep/internal/simspec"
	"delrep/internal/stats"
)

// Sweep is the figure behind delrepsim -sweep: one table row per
// point, in the order given. Every point goes through Spec.Resolve
// before anything runs, so a sweep accepts, rejects (the first invalid
// point is the error) and caches exactly as single runs do. Points
// carry their own windows and seed; the plan's are not stamped on them.
func Sweep(points []simspec.Spec) (Figure, error) {
	specs := make([]runner.Spec, len(points))
	for i, pt := range points {
		cfg, norm, err := pt.Resolve()
		if err != nil {
			return Figure{}, err
		}
		specs[i] = runner.Spec{Cfg: cfg, GPU: norm.GPU, CPU: norm.CPU}
	}
	build := func(p *Plan) func() Report {
		batch := p.eng.NewBatch()
		for _, s := range specs {
			batch.Add(s)
		}
		return func() Report {
			t := stats.NewTable(fmt.Sprintf("Sweep: %d runs", batch.Len()),
				"GPU", "CPU", "Scheme", "GPU IPC", "CPU lat", "CPU tput", "Blocked %", "RepUtil %", "Deleg")
			for _, run := range batch.Wait() {
				if run.Err != nil { // reported by Plan.Finish; zeros would read as a result
					t.AddRow(run.Spec.GPU, run.Spec.CPU, run.Spec.Cfg.Scheme.String(), "FAILED")
					continue
				}
				res := run.Results
				t.AddRow(run.Spec.GPU, run.Spec.CPU, run.Spec.Cfg.Scheme.String(),
					res.GPUIPC, res.CPULatAvg, res.CPUThroughput,
					100*res.MemBlockedRate, 100*res.MemReplyLinkUtil, res.Delegations)
			}
			return Report{Tables: []*stats.Table{t}}
		}
	}
	return Figure{"sweep", "one row per point of a parameter cross product", build}, nil
}

package core

import (
	"context"

	"delrep/internal/config"
)

// CancelCheckWindow is the default number of simulated cycles between
// cooperative cancellation checkpoints. The cycle loop itself stays
// pure (no context plumbing inside Tick); cancellation is only
// observed at window boundaries, so a cancelled run stops within one
// window's worth of simulated work.
const CancelCheckWindow = 4096

// RunControl parameterizes a controlled workload run. The zero value
// runs to completion with no cancellation or progress reporting and is
// exactly equivalent to RunWorkload: the control layer chunks the same
// tick sequence, it never alters it.
type RunControl struct {
	// Ctx, when non-nil, is polled at window boundaries; its error
	// aborts the run.
	Ctx context.Context
	// Window overrides the cycles between checkpoints (default
	// CancelCheckWindow).
	Window int64
	// OnProgress, when non-nil, is called at every checkpoint with the
	// cycles simulated so far and the total cycles of the run
	// (warm-up + measurement). It must not mutate simulation state.
	OnProgress func(done, total int64)
	// Parallel once spread the network tiles over that many workers.
	// It is ignored: a run ticks each network as one tile on the
	// caller's goroutine.
	//
	// Deprecated: kept so that callers built against the tiled tick
	// still compile.
	Parallel int
}

// RunWorkloadCtx runs the configured warm-up and measurement windows
// like RunWorkload, but in CancelCheckWindow-sized chunks with a
// cooperative cancellation checkpoint between chunks. A cancelled run
// returns the context's error and zero Results; the system is left at
// whatever cycle the last completed window reached. Because the chunk
// boundaries sit strictly between ticks, a completed controlled run is
// bit-identical (same StatsDigest) to an uncontrolled one.
func (s *System) RunWorkloadCtx(rc RunControl) (Results, error) {
	window := rc.Window
	if window <= 0 {
		window = CancelCheckWindow
	}
	total := s.Cfg.WarmupCycles + s.Cfg.MeasureCycles
	run := func(n int64) error {
		for n > 0 {
			step := window
			if step > n {
				step = n
			}
			s.Run(step)
			n -= step
			if rc.OnProgress != nil {
				rc.OnProgress(s.cycle, total)
			}
			if rc.Ctx != nil {
				if err := rc.Ctx.Err(); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := run(s.Cfg.WarmupCycles); err != nil {
		return Results{}, err
	}
	s.ResetStats()
	if err := run(s.Cfg.MeasureCycles); err != nil {
		return Results{}, err
	}
	return s.Collect(), nil
}

// RunAuditCtrl builds a system and executes the workload under the
// given control, returning the audit summary (cycle count, end-state
// digest, results). A cancelled run returns the context's error.
func RunAuditCtrl(rc RunControl, cfg config.Config, gpuBench, cpuBench string) (AuditRun, error) {
	sys := NewSystem(cfg, gpuBench, cpuBench)
	res, err := sys.RunWorkloadCtx(rc)
	if err != nil {
		return AuditRun{}, err
	}
	return AuditRun{Cycles: sys.Cycle(), Digest: sys.StatsDigest(), Results: res}, nil
}

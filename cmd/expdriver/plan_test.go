package main

import (
	"testing"

	"delrep/internal/config"
	"delrep/internal/experiment"
	"delrep/internal/runner"
)

// These tests drive experiment.Plan through the surface expdriver
// itself uses (NewPlan, the window fields, Defer); the figures are
// held to the committed record by internal/experiment's golden test.

func newTestPlan(quick bool) (*experiment.Plan, *runner.Engine) {
	eng := runner.New(runner.Options{Workers: 1})
	return experiment.NewPlan(quick, 1, eng), eng
}

func TestRunnerBenchSets(t *testing.T) {
	full, _ := newTestPlan(false)
	if got := len(full.GPUBenches()); got != 11 {
		t.Fatalf("full bench set = %d, want 11", got)
	}
	if got := len(full.SubsetBenches()); got != 5 {
		t.Fatalf("subset = %d, want 5", got)
	}
	if got := len(full.CoRunners("HS")); got != 3 {
		t.Fatalf("co-runners = %d, want 3", got)
	}
	quick, _ := newTestPlan(true)
	if got := len(quick.GPUBenches()); got != 3 {
		t.Fatalf("quick bench set = %d, want 3", got)
	}
	if got := len(quick.CoRunners("HS")); got != 1 {
		t.Fatalf("quick co-runners = %d, want 1", got)
	}
	if quick.Warm >= full.Warm || quick.Measure >= full.Measure {
		t.Fatal("quick windows not smaller")
	}
}

func TestRunnerSharesResults(t *testing.T) {
	p, eng := newTestPlan(true)
	p.Warm, p.Measure = 500, 1000 // tiny: this test runs real simulations
	cfg := experiment.BaseConfig(config.SchemeBaseline)
	a := p.Defer(cfg, "HS", "vips").Results()
	if c := eng.Snapshot(); c.Executed != 1 {
		t.Fatalf("first run executed %d simulations, want 1", c.Executed)
	}
	b := p.Defer(cfg, "HS", "vips").Results()
	if c := eng.Snapshot(); c.Executed != 1 || c.MemoHits != 1 {
		t.Fatalf("repeat run not shared: %+v", c)
	}
	if a != b {
		t.Fatal("shared run returned different results")
	}
	cfg.Scheme = config.SchemeDelegatedReplies
	p.Defer(cfg, "HS", "vips").Wait()
	if c := eng.Snapshot(); c.Executed != 2 {
		t.Fatalf("different scheme not re-run: %+v", c)
	}
}

// TestPrepStampsWindows guards the cache-key bugfix: the windows and
// seed the driver stamps must reach the engine's cache key, so -quick
// results can never alias full-window results in a shared cache.
func TestPrepStampsWindows(t *testing.T) {
	p, _ := newTestPlan(false)
	p.Warm, p.Measure, p.Seed = 111, 222, 7
	stamped := func() runner.Spec {
		f := p.Defer(experiment.BaseConfig(config.SchemeBaseline), "HS", "vips")
		f.Wait() // a few hundred cycles; leave nothing running behind the test
		return f.Spec()
	}
	s := stamped()
	if s.Cfg.WarmupCycles != 111 || s.Cfg.MeasureCycles != 222 || s.Cfg.Seed != 7 {
		t.Fatalf("plan did not stamp windows/seed: %+v", s.Cfg)
	}
	p.Warm = 333
	if s2 := stamped(); runner.Key(s.Cfg, s.GPU, s.CPU) == runner.Key(s2.Cfg, s2.GPU, s2.CPU) {
		t.Fatal("cache key ignores warmup window")
	}
}

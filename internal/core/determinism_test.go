package core

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"delrep/internal/config"
	"delrep/internal/par"
)

// auditConfig builds a short-window configuration for one scheme ×
// topology point. The window is small so the full matrix stays inside
// the tier-1 budget; determinism bugs of the map-iteration/RNG kind
// surface within a few hundred cycles because every packet ordering
// decision feeds back into the caches. These are cmd/digestdump's
// default windows, so its committed golden applies.
func auditConfig(scheme config.Scheme, topo config.Topology) config.Config {
	cfg := config.Default()
	cfg.Scheme = scheme
	cfg.NoC.Topology = topo
	cfg.WarmupCycles = 200
	cfg.MeasureCycles = 450
	cfg.GPU.KernelCycles = 300 // exercise the kernel-flush path too
	return cfg
}

// auditCase is one row of the audit table: a configuration, its
// workload pairing, and the label its golden digest is filed under.
type auditCase struct {
	name     string // subtest name
	golden   string // "<scheme> <topology|org>" as digestdump prints them
	cfg      config.Config
	gpu, cpu string
}

// auditMatrix is the scheme × topology half of the table.
func auditMatrix() []auditCase {
	var cases []auditCase
	for _, scheme := range []config.Scheme{
		config.SchemeBaseline,
		config.SchemeDelegatedReplies,
		config.SchemeRP,
	} {
		for _, topo := range []config.Topology{
			config.TopoMesh,
			config.TopoCrossbar,
			config.TopoFlattenedButterfly,
			config.TopoDragonfly,
		} {
			cases = append(cases, auditCase{
				name:   fmt.Sprintf("%v/%v", scheme, topo),
				golden: fmt.Sprintf("%v %v", scheme, topo),
				cfg:    auditConfig(scheme, topo),
				gpu:    "NN", cpu: "vips",
			})
		}
	}
	return cases
}

// auditSharedL1 is the cluster-organisation half: shared slices and the
// DynEB mode controller are extra state that must replay identically.
func auditSharedL1() []auditCase {
	var cases []auditCase
	for _, org := range []config.L1Org{config.L1DCL1, config.L1DynEB} {
		cfg := auditConfig(config.SchemeDelegatedReplies, config.TopoMesh)
		cfg.GPU.Org = org
		cfg.GPU.DynEBEpoch = 256
		cases = append(cases, auditCase{
			name:   org.String(),
			golden: fmt.Sprintf("%v %v", cfg.Scheme, org),
			cfg:    cfg,
			gpu:    "2DCON", cpu: "dedup",
		})
	}
	return cases
}

// debugChecks switches the self-checks of both networks (activity
// counters cross-checked by full scan, dormant routers ticked anyway)
// and of every SM (warps the refusal memo passes over presented
// anyway, and required to be refused).
func debugChecks(sys *System, on bool) {
	sys.ReqNet.DebugChecks, sys.RepNet.DebugChecks = on, on
	for _, g := range sys.GPUs {
		g.SM.DebugChecks = on
	}
}

// runCase runs one audit case with debugChecks on and returns the
// audit summary.
func runCase(t *testing.T, c auditCase) AuditRun {
	t.Helper()
	sys := NewSystem(c.cfg, c.gpu, c.cpu)
	debugChecks(sys, true)
	res, err := sys.RunWorkloadCtx(RunControl{})
	if err != nil {
		t.Fatal(err)
	}
	return AuditRun{Cycles: sys.Cycle(), Digest: sys.StatsDigest(), Results: res}
}

// goldenDigests loads seed 1 of cmd/digestdump's committed default
// golden — produced by the separate serial tick at the last commit
// that had one — keyed "<scheme> <topology|org>".
func goldenDigests(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile("../../cmd/digestdump/testdata/default.golden")
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) == 5 && f[0] == "seed=1" {
			golden[f[1]+" "+f[2]] = f[3] + " " + f[4]
		}
	}
	return golden
}

// goldenLine renders a run the way goldenDigests keys its values.
func goldenLine(cycles int64, digest uint64) string {
	return fmt.Sprintf("cycles=%d digest=%#016x", cycles, digest)
}

// auditGolden runs each case twice and requires bit-identical
// cycle counts and digests — the executable form of the invariants the
// simlint analyzers (mapiter, rngsource, tickpurity) police statically
// — and requires them to equal the committed golden, which is what
// licenses there being no second engine to compare against.
func auditGolden(t *testing.T, cases []auditCase) {
	golden := goldenDigests(t)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := runCase(t, c)
			b := runCase(t, c)
			if a.Cycles != b.Cycles || a.Digest != b.Digest {
				t.Fatalf("same-seed runs diverged: (%d, %#x) vs (%d, %#x)", a.Cycles, a.Digest, b.Cycles, b.Digest)
			}
			want, ok := golden[c.golden]
			if !ok {
				t.Fatalf("no golden line for %q", c.golden)
			}
			if got := goldenLine(a.Cycles, a.Digest); got != want {
				t.Fatalf("drifted from the committed golden: %s, want %s", got, want)
			}
		})
	}
}

// TestDeterminismAudit and TestDeterminismAuditSharedL1 pin the audit
// table to itself and to the committed golden.
func TestDeterminismAudit(t *testing.T)         { auditGolden(t, auditMatrix()) }
func TestDeterminismAuditSharedL1(t *testing.T) { auditGolden(t, auditSharedL1()) }

// TestPhaseProfileDigestIdentical: the profiler steps the same phase
// methods as Tick, so a profiled run must land on the golden digest —
// and every one of the five phases must have been stepped and timed,
// the commit included. NodeCommit has no phase behind it and stays
// zero.
func TestPhaseProfileDigestIdentical(t *testing.T) {
	c := auditMatrix()[4] // DelegatedReplies/Mesh
	want := goldenDigests(t)[c.golden]
	sys := NewSystem(c.cfg, c.gpu, c.cpu)
	prof := &PhaseProfile{}
	sys.SetPhaseProfile(prof)
	sys.RunWorkload()
	if got := goldenLine(sys.Cycle(), sys.StatsDigest()); got != want {
		t.Fatalf("profiled: %s, want %s", got, want)
	}
	if prof.Cycles != sys.Cycle() {
		t.Fatalf("profiled: %d cycles profiled of %d", prof.Cycles, sys.Cycle())
	}
	for name, d := range map[string]time.Duration{
		"Begin": prof.Begin, "NetCompute": prof.NetCompute, "NetCommit": prof.NetCommit,
		"NodeCompute": prof.NodeCompute, "Serial": prof.Serial,
	} {
		if d <= 0 {
			t.Errorf("profiled: phase %s recorded no time", name)
		}
	}
	if prof.NodeCommit != 0 {
		t.Errorf("profiled: NodeCommit = %v, want 0", prof.NodeCommit)
	}
}

// compatWorkers is the worker count the deprecated names are handed.
// Every count takes the same one-tile path, so one count stands for
// all of them.
const compatWorkers = 4

// runCompat runs one audit case like runCase, but through every name
// kept for callers built against the tiled tick: a par.Pool handed to
// both networks' SetParallel, System.SetParallel and Close, and
// RunControl.Parallel. It fails if a goroutine is started mid-run.
func runCompat(t *testing.T, c auditCase) AuditRun {
	t.Helper()
	goroutines := runtime.NumGoroutine()
	sys := NewSystem(c.cfg, c.gpu, c.cpu)
	debugChecks(sys, true)
	pool := par.NewPool(compatWorkers)
	sys.ReqNet.SetParallel(pool, compatWorkers)
	sys.RepNet.SetParallel(pool, compatWorkers)
	sys.SetParallel(compatWorkers)
	res, err := sys.RunWorkloadCtx(RunControl{Parallel: compatWorkers, Window: 100, OnProgress: func(_, _ int64) {
		if got := runtime.NumGoroutine(); got > goroutines {
			t.Fatalf("%d goroutines mid-run, %d before", got, goroutines)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	sys.Close()
	pool.Close()
	return AuditRun{Cycles: sys.Cycle(), Digest: sys.StatsDigest(), Results: res}
}

// auditPartitions requires a run through the deprecated worker-count
// names to reproduce the plain run's Results and digest exactly.
func auditPartitions(t *testing.T, cases []auditCase) {
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base, a := runCase(t, c), runCompat(t, c)
			if a.Cycles != base.Cycles || a.Digest != base.Digest {
				t.Fatalf("k=%d diverged from k=1: (%d, %#x) vs (%d, %#x)",
					compatWorkers, a.Cycles, a.Digest, base.Cycles, base.Digest)
			}
			if a.Results != base.Results {
				t.Fatalf("k=%d results diverged from k=1", compatWorkers)
			}
		})
	}
}

// TestDeterminismAuditParallel and TestDeterminismAuditParallelSharedL1
// pin the deprecated worker-count names to the one-tile run over the
// whole audit table: a worker count changes nothing and starts no
// goroutine.
func TestDeterminismAuditParallel(t *testing.T)         { auditPartitions(t, auditMatrix()) }
func TestDeterminismAuditParallelSharedL1(t *testing.T) { auditPartitions(t, auditSharedL1()) }

// TestDeprecatedParallelRunsOneTile pins RunAuditCtrl's worker count:
// RunControl{Parallel: 4} gives the plain run's digest and results and
// starts no goroutine.
func TestDeprecatedParallelRunsOneTile(t *testing.T) {
	c := auditMatrix()[4] // DelegatedReplies/Mesh
	base := RunAudit(c.cfg, c.gpu, c.cpu)
	goroutines := runtime.NumGoroutine()
	a, err := RunAuditCtrl(RunControl{Parallel: compatWorkers, Window: 100, OnProgress: func(_, _ int64) {
		if got := runtime.NumGoroutine(); got > goroutines {
			t.Fatalf("%d goroutines mid-run, %d before", got, goroutines)
		}
	}}, c.cfg, c.gpu, c.cpu)
	if err != nil {
		t.Fatal(err)
	}
	if a != base {
		t.Fatalf("RunControl{Parallel: %d}: cycles %d digest %#x, want %d %#x",
			compatWorkers, a.Cycles, a.Digest, base.Cycles, base.Digest)
	}
}

// TestDigestSeedSensitivity guards the digest itself: if it ignored
// the simulated state, the audit above would pass vacuously.
func TestDigestSeedSensitivity(t *testing.T) {
	cfg := auditConfig(config.SchemeDelegatedReplies, config.TopoMesh)
	a := RunAudit(cfg, "NN", "vips")
	cfg.Seed = 99
	b := RunAudit(cfg, "NN", "vips")
	if a.Digest == b.Digest {
		t.Fatal("different seeds produced identical digests: digest is not state-sensitive")
	}
}

// TestDebugChecksClogged runs the self-checks where the audit matrix's
// 650 cycles do not reach: the clogged HS+vips baseline mesh
// (sim-serial's first spec) and BT+dedup under Delegated Replies, seed
// 1, 3 000 warm-up and 3 000 measured cycles, with debugChecks on.
// Every sleeping router and NI is ticked anyway, every activity counter
// recounted and every memoised refusal presented again; the checked run
// must end on the unchecked run's digest.
func TestDebugChecksClogged(t *testing.T) {
	for _, c := range []struct {
		gpu, cpu string
		scheme   config.Scheme
	}{
		{"HS", "vips", config.SchemeBaseline},
		{"BT", "dedup", config.SchemeDelegatedReplies},
	} {
		t.Run(fmt.Sprintf("%s+%s/%v", c.gpu, c.cpu, c.scheme), func(t *testing.T) {
			cfg := config.Default()
			cfg.Scheme, cfg.Seed = c.scheme, 1
			cfg.WarmupCycles, cfg.MeasureCycles = 3_000, 3_000
			run := func(checked bool) string {
				sys := NewSystem(cfg, c.gpu, c.cpu)
				debugChecks(sys, checked)
				if _, err := sys.RunWorkloadCtx(RunControl{}); err != nil {
					t.Fatal(err)
				}
				return goldenLine(sys.Cycle(), sys.StatsDigest())
			}
			if checked, plain := run(true), run(false); checked != plain {
				t.Fatalf("checked run %s, unchecked %s", checked, plain)
			}
		})
	}
}

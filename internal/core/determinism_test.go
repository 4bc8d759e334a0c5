package core

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"delrep/internal/config"
	"delrep/internal/obs"
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
// DynEB mode controller are extra state that must replay identically,
// and they constrain the node partition (DCL1 shards on cluster
// boundaries, DynEB is one shard while the networks still tile).
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

// allWorkers asks SetParallel for as many workers as the engine can use.
const allWorkers = 1 << 30

// partitionSizes are the worker counts the audit table runs at beyond
// 1. Crossbar rows are one tile and k shards, DynEB rows k tiles and
// one shard, the rest k of each — all sizes of the one engine.
var partitionSizes = []int{2, 3, 4, 8, allWorkers}

// runPartition runs one audit case at k workers with both networks'
// DebugChecks on (activity counters cross-checked by full scan, dormant
// routers ticked anyway) and returns the audit summary.
func runPartition(t *testing.T, c auditCase, k int) AuditRun {
	t.Helper()
	sys := NewSystem(c.cfg, c.gpu, c.cpu)
	sys.ReqNet.DebugChecks, sys.RepNet.DebugChecks = true, true
	sys.SetParallel(k)
	defer sys.Close()
	res, err := sys.RunWorkloadCtx(RunControl{})
	if err != nil {
		t.Fatal(err)
	}
	return AuditRun{Cycles: sys.Cycle(), Digest: sys.StatsDigest(), Results: res, Workers: sys.Parallel()}
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

// auditGolden runs each case twice at k=1 and requires bit-identical
// cycle counts and digests — the executable form of the invariants the
// simlint analyzers (mapiter, rngsource, tickpurity) police statically
// — and requires them to equal the committed golden, which is what
// licenses there being no second engine to compare against.
func auditGolden(t *testing.T, cases []auditCase) {
	golden := goldenDigests(t)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := runPartition(t, c, 1)
			b := runPartition(t, c, 1)
			if a.Cycles != b.Cycles || a.Digest != b.Digest {
				t.Fatalf("same-seed runs diverged: (%d, %#x) vs (%d, %#x)", a.Cycles, a.Digest, b.Cycles, b.Digest)
			}
			want, ok := golden[c.golden]
			if !ok {
				t.Fatalf("no golden line for %q", c.golden)
			}
			if got := goldenLine(a.Cycles, a.Digest); got != want {
				t.Fatalf("k=1 drifted from the committed golden: %s, want %s", got, want)
			}
		})
	}
}

// auditPartitions requires every partition size to reproduce the k=1
// run's Results and digest exactly.
func auditPartitions(t *testing.T, cases []auditCase) {
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runPartition(t, c, 1)
			if base.Workers != 1 {
				t.Fatalf("k=1 ran at %d workers", base.Workers)
			}
			for _, k := range partitionSizes {
				a := runPartition(t, c, k)
				if a.Workers < 2 || a.Workers > k {
					t.Fatalf("k=%d ran at %d workers", k, a.Workers)
				}
				if a.Cycles != base.Cycles || a.Digest != base.Digest {
					t.Fatalf("k=%d diverged from k=1: (%d, %#x) vs (%d, %#x)",
						k, a.Cycles, a.Digest, base.Cycles, base.Digest)
				}
				if a.Results != base.Results {
					t.Fatalf("k=%d results diverged from k=1", k)
				}
			}
		})
	}
}

// TestDeterminismAudit and TestDeterminismAuditSharedL1 pin k=1 of the
// audit table to itself and to the committed golden.
func TestDeterminismAudit(t *testing.T)         { auditGolden(t, auditMatrix()) }
func TestDeterminismAuditSharedL1(t *testing.T) { auditGolden(t, auditSharedL1()) }

// TestDeterminismAuditParallel and TestDeterminismAuditParallelSharedL1
// pin every other partition size of the same table to k=1 — the
// acceptance bar for the phased cycle (DESIGN.md §11).
func TestDeterminismAuditParallel(t *testing.T)         { auditPartitions(t, auditMatrix()) }
func TestDeterminismAuditParallelSharedL1(t *testing.T) { auditPartitions(t, auditSharedL1()) }

// TestPhaseProfileDigestIdentical: the profiler steps the same phase
// methods as Tick, so a profiled run must land on the golden digest at
// every partition size — and every one of the six phases must have
// been stepped and timed, the commits included.
func TestPhaseProfileDigestIdentical(t *testing.T) {
	c := auditMatrix()[4] // DelegatedReplies/Mesh
	want := goldenDigests(t)[c.golden]
	for _, k := range []int{1, 4} {
		sys := NewSystem(c.cfg, c.gpu, c.cpu)
		sys.SetParallel(k)
		prof := &PhaseProfile{}
		sys.SetPhaseProfile(prof)
		sys.RunWorkload()
		sys.Close()
		if got := goldenLine(sys.Cycle(), sys.StatsDigest()); got != want {
			t.Fatalf("profiled k=%d: %s, want %s", k, got, want)
		}
		if prof.Cycles != sys.Cycle() {
			t.Fatalf("profiled k=%d: %d cycles profiled of %d", k, prof.Cycles, sys.Cycle())
		}
		for name, d := range map[string]time.Duration{
			"Begin": prof.Begin, "NetCompute": prof.NetCompute, "NetCommit": prof.NetCommit,
			"NodeCompute": prof.NodeCompute, "NodeCommit": prof.NodeCommit, "Serial": prof.Serial,
		} {
			if d <= 0 {
				t.Errorf("profiled k=%d: phase %s recorded no time", k, name)
			}
		}
	}
}

// waitPoolWorkers polls until exactly want par.Pool worker goroutines
// are alive in the process (released workers exit once they see their
// channel closed, which takes a scheduling round).
func waitPoolWorkers(t *testing.T, want int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		stacks := string(buf[:runtime.Stack(buf, true)])
		got := strings.Count(stacks, "created by delrep/internal/par.NewPool")
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d pool worker goroutines alive, want %d\n%s", got, want, stacks)
		}
	}
}

// TestAttachObserverAfterSetParallel: an observed system is the
// one-tile, one-shard partition whatever was configured before — the
// earlier pool's workers are released, the run owns no goroutine, and
// it still lands on the golden digest.
func TestAttachObserverAfterSetParallel(t *testing.T) {
	c := auditMatrix()[4] // DelegatedReplies/Mesh
	waitPoolWorkers(t, 0) // earlier tests' released workers
	sys := NewSystem(c.cfg, c.gpu, c.cpu)
	sys.SetParallel(4)
	if sys.Parallel() != 4 {
		t.Fatalf("SetParallel(4): Parallel() = %d", sys.Parallel())
	}
	waitPoolWorkers(t, 3)
	o := obs.New(obs.Options{Window: 100, TraceSample: 4})
	sys.AttachObserver(o)
	if sys.Parallel() != 1 {
		t.Fatalf("observed system runs at %d workers, want 1", sys.Parallel())
	}
	waitPoolWorkers(t, 0)
	sys.RunWorkload() // no Close: one worker owns no goroutine
	waitPoolWorkers(t, 0)
	want := goldenDigests(t)[c.golden]
	if got := goldenLine(sys.Cycle(), sys.StatsDigest()); got != want {
		t.Fatalf("observed run: %s, want %s", got, want)
	}
	if o.TraceCount() == 0 {
		t.Fatal("no packet traces collected")
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

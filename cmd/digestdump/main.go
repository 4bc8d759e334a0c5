// Command digestdump prints the determinism-audit digest for every
// scheme × topology × seed point of the audit matrix (the same points
// internal/core/determinism_test.go replays). Its output is the
// digest-identity evidence for refactors that must not change
// simulated behaviour: testdata/*.golden hold the committed output of
// two windows, `go test ./cmd/digestdump` regenerates and diffs them,
// and any drift means the change was not behaviour-preserving.
//
// Usage:
//
//	digestdump [-seeds 1,7,99] [-warm 200] [-cycles 450]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"delrep/internal/config"
	"delrep/internal/core"
)

func main() {
	var (
		seeds  = flag.String("seeds", "1,7,99", "comma-separated seeds")
		warm   = flag.Int64("warm", 200, "warmup cycles")
		cycles = flag.Int64("cycles", 450, "measured cycles")
	)
	flag.Parse()
	if err := dump(os.Stdout, *seeds, *warm, *cycles); err != nil {
		fmt.Fprintln(os.Stderr, "digestdump:", err)
		os.Exit(1)
	}
}

// dump writes one digest line per audit-matrix point to w.
func dump(w io.Writer, seeds string, warm, cycles int64) error {
	schemes := []config.Scheme{
		config.SchemeBaseline,
		config.SchemeDelegatedReplies,
		config.SchemeRP,
	}
	topologies := []config.Topology{
		config.TopoMesh,
		config.TopoCrossbar,
		config.TopoFlattenedButterfly,
		config.TopoDragonfly,
	}
	run := func(cfg config.Config, seed int64, gpu, cpu string, label any) error {
		cfg.Seed = seed
		cfg.WarmupCycles = warm
		cfg.MeasureCycles = cycles
		cfg.GPU.KernelCycles = 300
		a := core.RunAudit(cfg, gpu, cpu)
		_, err := fmt.Fprintf(w, "seed=%-3d %-10v %-10v cycles=%-6d digest=%#016x\n",
			seed, cfg.Scheme, label, a.Cycles, a.Digest)
		return err
	}
	for _, s := range strings.Split(seeds, ",") {
		seed, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return err
		}
		for _, scheme := range schemes {
			for _, topo := range topologies {
				cfg := config.Default()
				cfg.Scheme = scheme
				cfg.NoC.Topology = topo
				if err := run(cfg, seed, "NN", "vips", topo); err != nil {
					return err
				}
			}
		}
		// Shared-L1 organisations (extra cluster state).
		for _, org := range []config.L1Org{config.L1DCL1, config.L1DynEB} {
			cfg := config.Default()
			cfg.Scheme = config.SchemeDelegatedReplies
			cfg.NoC.Topology = config.TopoMesh
			cfg.GPU.Org = org
			cfg.GPU.DynEBEpoch = 256
			if err := run(cfg, seed, "2DCON", "dedup", org); err != nil {
				return err
			}
		}
		// Adaptive routing on the mesh: the one route that is not CDR.
		cfg := config.Default()
		cfg.Scheme, cfg.NoC.Routing = config.SchemeDelegatedReplies, config.RoutingAdaptive
		if err := run(cfg, seed, "NN", "vips", cfg.NoC.Routing); err != nil {
			return err
		}
	}
	return nil
}

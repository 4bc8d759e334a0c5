// Package mapiter flags `for … range` over a map in code whose
// iteration order reaches simulated state. Go randomizes map iteration
// order, so any such walk breaks same-seed reproducibility — the
// property every latency/IPC ratio in the paper's figures rests on.
// The checked code is the hotpath call graph from the per-cycle entry
// points (Tick/Step/Cycle/BeginCycle/HandlePacket).
//
// Such code must iterate slices (or sort keys first and suppress the
// finding with a //simlint:ignore comment explaining why).
package mapiter

import (
	"go/ast"
	"go/types"

	"delrep/internal/lint/analysis"
	"delrep/internal/lint/hotpath"
)

// Analyzer flags nondeterministic map iteration in per-cycle code.
var Analyzer = &analysis.Analyzer{
	Name: "mapiter",
	Doc: "flag range-over-map in functions reachable from a per-cycle " +
		"entry point (Tick/Step/Cycle/BeginCycle/HandlePacket); map " +
		"iteration order is nondeterministic and breaks seeded runs",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for fn, hf := range hotpath.Reachable(pass) {
		if hf.Decl.Body == nil {
			continue
		}
		ast.Inspect(hf.Decl.Body, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypesInfo.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); isMap {
				pass.Reportf(rs.For, "range over map %s in per-cycle hot path (%s is reachable from %s): map iteration order is nondeterministic",
					types.TypeString(t, types.RelativeTo(pass.Pkg)), hotpath.Describe(fn), hotpath.Describe(hf.Root))
			}
			return true
		})
	}
	return nil
}

// Package mapiter flags `for … range` over a map in code whose
// iteration order reaches simulated state. Go randomizes map iteration
// order, so any such walk breaks same-seed reproducibility — the
// property every latency/IPC ratio in the paper's figures rests on.
// The checked code is the hotpath call graph from two kinds of root:
//
//   - the per-cycle entry points (Tick/Step/Cycle/BeginCycle/
//     HandlePacket);
//   - every function whose body touches a cross-tile staging buffer
//     (fifo.Stash, or a struct holding one directly, like noc's
//     stageBuf). The order a drain/commit/fold loop visits them IS
//     the inter-thread event order of tile-parallel ticking, and tile
//     worker bodies are invoked through a prebound function-value
//     field (Network.sectionFn), an edge the static call graph never
//     sees from Tick.
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

// fifoPath is the import path of the staging-buffer type.
const fifoPath = "delrep/internal/fifo"

// Analyzer flags nondeterministic map iteration in per-cycle and
// staged-commit code.
var Analyzer = &analysis.Analyzer{
	Name: "mapiter",
	Doc: "flag range-over-map in functions reachable from a per-cycle " +
		"entry point (Tick/Step/Cycle/BeginCycle/HandlePacket) or from " +
		"code touching a cross-tile staging buffer (fifo.Stash); map " +
		"iteration order is nondeterministic and breaks seeded runs",
	Run: run,
}

func run(pass *analysis.Pass) error {
	stashRoot := func(fd *ast.FuncDecl) bool {
		found := false
		if fd.Body != nil {
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if e, ok := n.(ast.Expr); ok && !found {
					t := pass.TypesInfo.TypeOf(e)
					found = t != nil && touchesStash(t)
				}
				return !found
			})
		}
		return found
	}
	for fn, hf := range hotpath.Reachable(pass, stashRoot) {
		if hf.Decl.Body == nil {
			continue
		}
		format := "range over map %s in per-cycle hot path (%s is reachable from %s): map iteration order is nondeterministic"
		if !hotpath.RootNames[hf.Root.Name()] {
			format = "range over map %s in staged-commit code (%s is reachable from %s, which touches a fifo.Stash staging buffer): map order would become inter-thread event order"
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
				pass.Reportf(rs.For, format, types.TypeString(t, types.RelativeTo(pass.Pkg)),
					hotpath.Describe(fn), hotpath.Describe(hf.Root))
			}
			return true
		})
	}
	return nil
}

// touchesStash reports whether t is a fifo.Stash, a struct with a
// direct Stash field (the stageBuf pattern), or a pointer/slice/array
// of either. The check is deliberately shallow: recursing through
// arbitrary struct fields would taint every function holding a
// *Network and drown the signal.
func touchesStash(t types.Type) bool {
	t = stripElem(t)
	if isStash(t) {
		return true
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isStash(stripElem(st.Field(i).Type())) {
			return true
		}
	}
	return false
}

// stripElem unwraps pointers, slices, and arrays down to the element.
func stripElem(t types.Type) types.Type {
	for {
		switch u := t.Underlying().(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		default:
			return t
		}
	}
}

// isStash reports whether t is (an instantiation of) fifo.Stash.
func isStash(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == fifoPath && obj.Name() == "Stash"
}

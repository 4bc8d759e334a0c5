// Package hotpath computes which functions of a package belong to the
// simulator's per-cycle hot path: everything reachable from a method
// or function whose name marks a per-cycle entry point (Tick, Step,
// Cycle, BeginCycle, HandlePacket). It is the suite's one call graph: mapiter,
// tickpurity and rngsource restrict their checks to this set so that
// setup, reporting, and test helpers stay free to use maps and I/O.
package hotpath

import (
	"go/ast"
	"go/types"

	"delrep/internal/lint/analysis"
)

// RootNames are the method/function names treated as per-cycle entry
// points. HandlePacket is included because packet handlers are invoked
// through NI.Handler function values every cycle, an edge a static
// call graph cannot see.
var RootNames = map[string]bool{
	"Tick":         true,
	"Step":         true,
	"Cycle":        true,
	"BeginCycle":   true,
	"HandlePacket": true,
}

// Func is one hot-path function with the entry point that reaches it.
type Func struct {
	Decl *ast.FuncDecl
	// Root is the entry-point function this one is reachable from
	// (possibly itself).
	Root *types.Func
}

// Reachable returns the package's hot-path functions keyed by their
// types object: everything the RootNames entry points reach.
//
// The call graph is intra-package and intentionally conservative in
// the flagging direction: calls through interface values add an edge
// to every same-named method in the package, any reference to a
// package function (method values, handler registration, arguments)
// counts as a call, and a method of an instantiated generic type is
// its generic declaration. Cross-package edges are invisible — each
// package is kept honest by its own entry points.
func Reachable(pass *analysis.Pass) map[*types.Func]Func {
	var order []*types.Func // declaration order, so Root is deterministic
	decls := map[*types.Func]*ast.FuncDecl{}
	methodsByName := map[string][]*types.Func{}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			order = append(order, fn)
			decls[fn] = fd
			if fd.Recv != nil {
				methodsByName[fn.Name()] = append(methodsByName[fn.Name()], fn)
			}
		}
	}

	edges := map[*types.Func][]*types.Func{}
	for fn, fd := range decls {
		if fd.Body == nil {
			continue
		}
		seen := map[*types.Func]bool{}
		add := func(callee *types.Func) {
			// A method of an instantiated generic type is a distinct
			// object per instantiation; its body is the origin's.
			callee = callee.Origin()
			if _, local := decls[callee]; local && !seen[callee] {
				seen[callee] = true
				edges[fn] = append(edges[fn], callee)
			}
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if callee, ok := pass.TypesInfo.Uses[n].(*types.Func); ok {
					add(callee)
				}
			case *ast.SelectorExpr:
				callee, ok := pass.TypesInfo.Uses[n.Sel].(*types.Func)
				if !ok {
					return true
				}
				add(callee)
				// A call through an interface could land on any
				// same-named method in this package.
				if sel, ok := pass.TypesInfo.Selections[n]; ok && types.IsInterface(sel.Recv()) {
					for _, m := range methodsByName[callee.Name()] {
						add(m)
					}
				}
			}
			return true
		})
	}

	// Breadth-first from the named entry points, in declaration order,
	// so each function's Root is deterministic.
	reach := map[*types.Func]Func{}
	var queue []*types.Func
	for _, fn := range order {
		if RootNames[fn.Name()] {
			reach[fn] = Func{Decl: decls[fn], Root: fn}
			queue = append(queue, fn)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, callee := range edges[fn] {
			if _, ok := reach[callee]; !ok {
				reach[callee] = Func{Decl: decls[callee], Root: reach[fn].Root}
				queue = append(queue, callee)
			}
		}
	}
	return reach
}

// Describe names fn for diagnostics: "(*T).Tick" or "run".
func Describe(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	return "(" + types.TypeString(sig.Recv().Type(), types.RelativeTo(fn.Pkg())) + ")." + fn.Name()
}

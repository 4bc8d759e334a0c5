// Package statsdiscipline enforces the simulator's measurement-window
// contract in two parts.
//
// Ownership: a stats counter (an exported field of a *Stats struct, or
// anything declared in a package named "stats") may only be written by
// the package that declares it. Foreign writes bypass the owner's
// Reset/ResetStats hooks, so the counter silently survives the
// warm-up boundary and corrupts the measured window.
//
// Resettability: any exported integer counter field a package
// increments through long-lived state (a receiver, parameter, or
// package variable) must have a reset path — a Reset/ResetStats method
// on the declaring struct, a wholesale `x = T{}` zeroing, or an
// explicit assignment — so ResetStats at the end of warm-up actually
// clears it. A counter that only ever increments measures the warm-up
// too, which is exactly the bug the paper's calibration (Fig. 2) and
// injection-rate sweeps cannot tolerate.
package statsdiscipline

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"delrep/internal/lint/analysis"
)

// Analyzer flags stats-counter writes that violate the measurement
// discipline.
var Analyzer = &analysis.Analyzer{
	Name: "statsdiscipline",
	Doc: "flag writes to another package's stats counters and " +
		"incremented counters with no reset path to the " +
		"warm-up/measurement-window boundary",
	Run: run,
}

func run(pass *analysis.Pass) error {
	incremented := map[*types.Var][]token.Pos{} // counter field -> increment sites
	reset := map[*types.Var]bool{}              // fields with an explicit assignment
	wholesale := map[*types.Named]bool{}        // types zeroed via x = T{...}

	record := func(lhs ast.Expr, tok token.Token, rhs ast.Expr) {
		sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
		if !ok {
			return
		}
		field := fieldOf(pass, sel)
		if field == nil {
			return
		}
		checkForeignWrite(pass, sel, field)
		switch tok {
		case token.INC, token.DEC, token.ADD_ASSIGN, token.SUB_ASSIGN:
			if isLocalCounterCandidate(pass, sel, field) {
				incremented[field] = append(incremented[field], sel.Pos())
			}
		case token.ASSIGN, token.DEFINE:
			reset[field] = true
			if cl, ok := ast.Unparen(rhs).(*ast.CompositeLit); ok {
				if named := namedOf(pass.TypesInfo.TypeOf(cl)); named != nil {
					wholesale[named] = true
				}
			}
		}
	}

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.IncDecStmt:
				record(n.X, n.Tok, nil)
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					var rhs ast.Expr
					if i < len(n.Rhs) {
						rhs = n.Rhs[i]
					}
					record(lhs, n.Tok, rhs)
				}
			}
			return true
		})
	}

	// Resettability: every incremented counter needs a reset path.
	for field, sites := range incremented {
		owner := owningStruct(pass, field)
		if owner == nil {
			continue // declared elsewhere; the owner's package checks it
		}
		if reset[field] || wholesale[owner] || hasResetMethod(owner) {
			continue
		}
		pos := sites[0]
		for _, p := range sites[1:] {
			if p < pos {
				pos = p
			}
		}
		pass.Reportf(pos,
			"counter %s.%s is incremented but never reset: give %s a ResetStats (or zero it) so the warm-up/measurement-window boundary clears it",
			owner.Obj().Name(), field.Name(), owner.Obj().Name())
	}
	return nil
}

// fieldOf resolves a selector to the struct field it names, if any.
func fieldOf(pass *analysis.Pass, sel *ast.SelectorExpr) *types.Var {
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	v, _ := s.Obj().(*types.Var)
	return v
}

// checkForeignWrite reports a write to a stats counter declared in
// another package.
func checkForeignWrite(pass *analysis.Pass, sel *ast.SelectorExpr, field *types.Var) {
	if field.Pkg() == nil || field.Pkg() == pass.Pkg {
		return
	}
	recv := namedOf(pass.TypesInfo.Selections[sel].Recv())
	if recv == nil || !statsLike(recv) {
		return
	}
	pass.Reportf(sel.Pos(),
		"direct write to stats counter %s.%s from outside its owning package %s: use the owner's methods so Reset/ResetStats hooks stay authoritative",
		recv.Obj().Name(), field.Name(), field.Pkg().Path())
}

// statsLike reports whether a named type is a stats container: its
// name mentions Stats or it lives in a package named stats.
func statsLike(named *types.Named) bool {
	if strings.Contains(named.Obj().Name(), "Stats") {
		return true
	}
	return named.Obj().Pkg() != nil && named.Obj().Pkg().Name() == "stats"
}

// isLocalCounterCandidate reports whether the incremented field is an
// exported integer counter on long-lived state: the selector chain
// must root at a receiver, parameter, or package-level variable —
// increments on function-local builders (r := Results{}; r.X++) are
// not measurement counters.
func isLocalCounterCandidate(pass *analysis.Pass, sel *ast.SelectorExpr, field *types.Var) bool {
	if !field.Exported() || !isInteger(field.Type()) {
		return false
	}
	root := ast.Expr(sel)
	for {
		switch e := ast.Unparen(root).(type) {
		case *ast.SelectorExpr:
			root = e.X
		case *ast.IndexExpr:
			root = e.X
		case *ast.StarExpr:
			root = e.X
		case *ast.Ident:
			obj, ok := pass.TypesInfo.Uses[e].(*types.Var)
			if !ok {
				return false
			}
			if obj.Parent() == pass.Pkg.Scope() {
				return true // package-level variable
			}
			return isParamOrReceiver(pass, obj)
		default:
			return false
		}
	}
}

// isParamOrReceiver reports whether v is a parameter or receiver of a
// function declaration or literal in the package: its scope is a
// function's, and it is declared before the parameter list ends — not
// as a named result or a top-level local of the body, which share that
// scope.
func isParamOrReceiver(pass *analysis.Pass, v *types.Var) bool {
	for node, scope := range pass.TypesInfo.Scopes {
		if ft, ok := node.(*ast.FuncType); ok && scope == v.Parent() {
			return ft.Pos() <= v.Pos() && v.Pos() < ft.Params.End()
		}
	}
	return false
}

func isInteger(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// owningStruct finds the named struct type in this package that
// declares the field.
func owningStruct(pass *analysis.Pass, field *types.Var) *types.Named {
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == field {
				return named
			}
		}
	}
	return nil
}

// hasResetMethod reports whether T or *T has a Reset or ResetStats
// method.
func hasResetMethod(named *types.Named) bool {
	ms := types.NewMethodSet(types.NewPointer(named))
	for i := 0; i < ms.Len(); i++ {
		switch ms.At(i).Obj().Name() {
		case "Reset", "ResetStats":
			return true
		}
	}
	return false
}

func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	named, _ := t.(*types.Named)
	return named
}

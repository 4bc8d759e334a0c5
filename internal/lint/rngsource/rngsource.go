// Package rngsource flags randomness that escapes the experiment seed:
// calls to math/rand's global, process-wide functions, wall-clock
// (time.Now-derived) RNG seeds, and any time.Now use inside a package
// that has a per-cycle entry point (hotpath.Reachable is non-empty:
// the simulator proper, not the daemons that timestamp jobs around
// it). Every random decision in the simulator must come from a
// *rand.Rand constructed from the configured seed (as internal/workload
// and internal/core already do), or two runs with the same config stop
// being comparable.
package rngsource

import (
	"go/ast"
	"go/types"

	"delrep/internal/lint/analysis"
	"delrep/internal/lint/hotpath"
)

// Analyzer flags unseeded or wall-clock-derived randomness.
var Analyzer = &analysis.Analyzer{
	Name: "rngsource",
	Doc: "flag global math/rand functions, time.Now-derived RNG seeds, " +
		"and time.Now in packages with a per-cycle entry point; all " +
		"randomness must flow from an injected *rand.Rand seeded by config",
	Run: run,
}

// constructors are the math/rand package-level functions that do not
// touch the global generator and stay legal everywhere.
var constructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

// seeders are the functions whose arguments must not carry wall-clock
// time: deriving a seed from time.Now makes runs unreproducible.
var seeders = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewPCG":    true,
	"Seed":      true,
}

func isRandPkg(path string) bool {
	return path == "math/rand" || path == "math/rand/v2"
}

func run(pass *analysis.Pass) error {
	simulator := len(hotpath.Reachable(pass)) > 0
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.Callee(pass.TypesInfo, call)
			if fn == nil {
				return true
			}
			pkg := fn.Pkg()
			if pkg == nil {
				return true
			}
			sig, _ := fn.Type().(*types.Signature)
			pkgLevel := sig != nil && sig.Recv() == nil
			switch {
			case isRandPkg(pkg.Path()) && pkgLevel && !constructors[fn.Name()]:
				pass.Reportf(call.Pos(),
					"call to global %s.%s uses the shared process-wide generator; inject a *rand.Rand seeded from the experiment config",
					pkg.Path(), fn.Name())
			case pkg.Path() == "time" && fn.Name() == "Now" && simulator:
				pass.Reportf(call.Pos(),
					"time.Now in simulator package %s: simulated behaviour must depend only on the cycle counter and the configured seed",
					pass.PkgPath)
			}
			// Wall-clock seeds: a time.Now call anywhere in the argument
			// tree of a seeding function (rand.NewSource(time.Now()...)).
			if (isRandPkg(pkg.Path()) && seeders[fn.Name()]) ||
				(sig != nil && sig.Recv() != nil && fn.Name() == "Seed" && isRandPkg(pkg.Path())) {
				for _, arg := range call.Args {
					if now := findTimeNow(pass, arg); now != nil {
						pass.Reportf(call.Pos(),
							"RNG seeded from the wall clock (%s.%s argument calls time.Now); seed from the experiment config instead",
							pkg.Name(), fn.Name())
						break
					}
				}
			}
			return true
		})
	}
	return nil
}

// findTimeNow returns the first time.Now call in the expression tree.
func findTimeNow(pass *analysis.Pass, e ast.Expr) *ast.CallExpr {
	var found *ast.CallExpr
	ast.Inspect(e, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := analysis.Callee(pass.TypesInfo, call); fn != nil && fn.Pkg() != nil &&
			fn.Pkg().Path() == "time" && fn.Name() == "Now" {
			found = call
			return false
		}
		return true
	})
	return found
}

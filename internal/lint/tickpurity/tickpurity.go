// Package tickpurity keeps the per-cycle hot path pure: no I/O, no
// sleeping, no goroutines. The simulator advances in single-threaded
// virtual time; a fmt.Println in a Tick path slows every experiment by
// orders of magnitude, a time.Sleep couples simulated behaviour to the
// host scheduler, and a spawned goroutine races the cycle loop and
// destroys determinism. Debug output belongs behind the reporting
// paths that run between measurement windows.
package tickpurity

import (
	"go/ast"
	"go/types"

	"delrep/internal/lint/analysis"
	"delrep/internal/lint/hotpath"
)

// Analyzer flags I/O, sleeps, and goroutine spawns in per-cycle code.
var Analyzer = &analysis.Analyzer{
	Name: "tickpurity",
	Doc: "flag I/O, time.Sleep, wall-clock reads, and goroutine spawns " +
		"in functions reachable from a per-cycle entry point " +
		"(Tick/Step/Cycle/BeginCycle/HandlePacket)",
	Run: run,
}

// bannedFuncs lists (package, function) pairs that must not run per
// cycle. A nil set bans every function in the package.
var bannedFuncs = map[string]map[string]bool{
	"time": {
		"Sleep":     true,
		"Now":       true,
		"After":     true,
		"Tick":      true,
		"NewTimer":  true,
		"NewTicker": true,
	},
	"fmt": {
		"Print":    true,
		"Printf":   true,
		"Println":  true,
		"Fprint":   true,
		"Fprintf":  true,
		"Fprintln": true,
		"Scan":     true,
		"Scanf":    true,
		"Scanln":   true,
	},
	"os":        nil,
	"log":       nil,
	"log/slog":  nil,
	"io/ioutil": nil,
	"net":       nil,
	"net/http":  nil,
	"syscall":   nil,
}

func run(pass *analysis.Pass) error {
	for fn, hf := range hotpath.Reachable(pass) {
		if hf.Decl.Body == nil {
			continue
		}
		where := hotpath.Describe(fn)
		root := hotpath.Describe(hf.Root)
		ast.Inspect(hf.Decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"goroutine spawned in per-cycle hot path (%s is reachable from %s): the cycle loop is single-threaded and concurrent mutation breaks determinism",
					where, root)
			case *ast.CallExpr:
				callee := analysis.Callee(pass.TypesInfo, n)
				if callee == nil || callee.Pkg() == nil {
					return true
				}
				sig, _ := callee.Type().(*types.Signature)
				if sig == nil || sig.Recv() != nil {
					return true
				}
				names, banned := bannedFuncs[callee.Pkg().Path()]
				if !banned || (names != nil && !names[callee.Name()]) {
					return true
				}
				pass.Reportf(n.Pos(),
					"call to %s.%s in per-cycle hot path (%s is reachable from %s): keep Tick paths free of I/O and wall-clock time",
					callee.Pkg().Path(), callee.Name(), where, root)
			}
			return true
		})
	}
	return nil
}

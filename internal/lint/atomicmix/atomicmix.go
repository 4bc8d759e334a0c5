// Package atomicmix makes mixed atomic/plain access unrepresentable:
// every use of a function-style sync/atomic operation
// (atomic.AddInt64(&x, 1), atomic.LoadUint32(&v), ...) is a finding.
// A word reached through those functions can also be read or written
// plainly — a data race the race detector sees only on the schedules
// that collide — whereas the typed atomics (atomic.Int64,
// atomic.Pointer[T], ...) have no plain access to mix with, so they
// need no analysis.
package atomicmix

import (
	"go/types"

	"delrep/internal/lint/analysis"
)

// Analyzer flags function-style sync/atomic operations.
var Analyzer = &analysis.Analyzer{
	Name: "atomicmix",
	Doc: "flag function-style sync/atomic operations (atomic.AddInt64(&x, 1)); " +
		"a typed atomic.Int64 cannot be accessed plainly by mistake",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for id, obj := range pass.TypesInfo.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" || fn.Type().(*types.Signature).Recv() != nil {
			continue // not sync/atomic, or a method of a typed atomic
		}
		pass.Reportf(id.Pos(),
			"function-style atomic.%s: the same word can also be accessed plainly; declare it as a typed atomic (atomic.Int64, atomic.Pointer[T], ...)",
			fn.Name())
	}
	return nil
}

// Package lint is the umbrella for the simulator's custom static
// analysis. Each analyzer enforces a repo-specific invariant that
// ordinary vet cannot see, and is kept because it found a real bug or
// is the only check that fires on a planted one (DESIGN.md §10 has the
// table; cmd/simlint's TestPlantedMutations replays it):
//
//   - tickpurity: nothing reachable from a per-cycle entry point may
//     perform I/O, read the wall clock, sleep, or spawn a goroutine.
//   - mapiter: no range over a map in that same per-cycle code.
//   - rngsource: all randomness flows from the seeded per-system
//     source, never the global math/rand state or a wall-clock seed,
//     and simulator packages do not read time.Now.
//   - stagecommit: no range over a map in code that touches a
//     cross-tile staging buffer (fifo.Stash).
//   - statsdiscipline: stats counters are written only by their owning
//     package and have a reset path to the warm-up boundary.
//   - lockorder: no blocking operation under a held mutex, and one
//     acquisition order per pair of mutexes.
//   - ctxflow: no context.Background() or context-less call variant
//     where a context is already in scope.
//   - atomicmix: no function-style sync/atomic operations; typed
//     atomics cannot be accessed plainly.
//
// hotpath is not an analyzer: it computes the intra-package call graph
// rooted at the per-cycle entry points (Tick, Step, ...) that
// tickpurity, mapiter and rngsource share. analysis is the stdlib-only
// driver (loader, Pass, //simlint:ignore handling) and analysistest
// its `// want` fixture harness. cmd/simlint runs the suite ("make
// lint", CI, and tier-1 through TestTreeLintsClean).
package lint

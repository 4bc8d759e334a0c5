package core

import "delrep/internal/par"

// SetParallel sizes the network partition the cycle runs over
// (System.Tick): both networks are split into min(workers, routers)
// tiles whose compute sections run on one persistent pool of that many
// workers, so a crossbar — one router — is always one tile. The node
// phase runs on the caller whatever the size. Results, StatsDigest and
// packet IDs are bit-identical at every worker count; see System.Tick,
// internal/noc/tile.go and DESIGN.md §11 for the argument.
//
// NewSystem builds the one-tile partition, which runs inline on the
// caller; SetParallel may replace it after NewSystem and before the
// first Tick. workers < 1 means 1. An attached observer also means 1:
// its trace hooks stamp packet hops inside the tile compute sections,
// and since the partition never changes results the clamp is
// observable only in wall time.
//
// Callers can read the engine-effective worker count back with
// Parallel(); requests are clamped silently so that one binary can ask
// for "8 workers" across every topology, but surfacing the clamp is
// the caller's job (the runner records it in AuditRun.Workers).
//
// A System with more than one worker owns n-1 worker goroutines; call
// Close when done with it.
func (s *System) SetParallel(workers int) {
	if s.cycle != 0 {
		panic("core: SetParallel after the first tick")
	}
	if s.obs != nil {
		workers = 1
	}
	eff := max(1, min(workers, len(s.ReqNet.Routers)))
	s.Close()
	s.pool = par.NewPool(eff)
	s.parallel = eff
	s.ReqNet.SetParallel(s.pool, eff)
	if s.RepNet != s.ReqNet {
		s.RepNet.SetParallel(s.pool, eff)
	}
}

// Parallel returns the engine-effective worker count.
func (s *System) Parallel() int { return s.parallel }

// Close releases the pool's worker goroutines, if any. Idempotent; a
// one-worker System has none and never needs it.
func (s *System) Close() {
	if s.pool != nil {
		s.pool.Close()
	}
}

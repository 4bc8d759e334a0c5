package core

import (
	"delrep/internal/config"
	"delrep/internal/cpu"
	"delrep/internal/par"
)

// This file implements the node partition: the begin and tick phases
// of the per-node components (memory nodes, clusters, GPU cores, CPU
// cores) run over contiguous shards, as sections of the same pool
// dispatches that drive the network tiles. Every System has at least
// one shard; how many is SetParallel's choice.
//
// Race-freedom argument (DESIGN.md §11 is the long form): during the
// node phase every cross-node interaction flows through the networks —
// a node only ever appends to its own NIs' injection queues, and those
// are drained by the next cycle's network phase, after a barrier. The
// only cross-shard reads are the locality probes (probeLocal /
// Cluster.Probe), which are read-only Peeks against cache tags that
// change exclusively at commit time (network ejection handlers and the
// end-of-cycle flush), never during the node phase.
//
// Three structures would break that argument, so they constrain the
// partition instead:
//
//   - Wavefronts are shared by the cores of one sharing group
//     (GPUProf.ShareGroup consecutive cores), so shard boundaries must
//     fall on group boundaries.
//   - A cluster's shared L1 is read and written by all of its member
//     cores (ClusterCores consecutive cores), so boundaries must also
//     fall on cluster boundaries, and each cluster is ticked by the
//     shard owning its first core.
//   - DynEB's mode controller invalidates member L1 tags mid-phase
//     (setShared), which would race remote locality probes; under
//     DynEB the node phase is one shard (maxNodeShards = 1).
//
// Memory and CPU nodes have no cross-node state and partition freely.
//
// Determinism: each shard ticks its slice in the canonical order
// (memory nodes, clusters, GPU cores, CPU cores), every ordering
// inside one cycle that crosses a shard boundary is either commutative
// (disjoint state) or deferred to the commit phases, and the two
// mutable aggregates a shard feeds — the packet allocator and the
// locality counters — are shard-private, folded (or digested) in fixed
// shard order. Results and StatsDigest are bit-identical at every
// shard count.

// shard owns a contiguous slice of each node population plus the
// allocator and locality delta its components write through during
// the node phase.
type shard struct {
	mems     []*MemNode
	clusters []*Cluster
	gpus     []*GPUCore
	cpus     []*cpu.Core

	al  alloc
	loc locCounters
	_   [64]byte // no false sharing between adjacent shards' deltas
}

// BeginCycle runs the shard's slice of the begin phase: per-cycle
// budget resets only (memory blocking is sampled before the dispatch —
// see System.begin). Like Tick below it carries a name simlint's
// hot-path analyzers root at, because the dispatch reaches both
// through a prebound function value their call graph cannot follow.
func (sh *shard) BeginCycle() {
	for _, m := range sh.mems {
		m.beginQuota()
	}
	for _, g := range sh.gpus {
		g.BeginCycle()
	}
}

// Tick runs the shard's slice of the node phase in the canonical
// order: memory nodes, clusters, GPU cores, CPU cores.
func (sh *shard) Tick() {
	for _, m := range sh.mems {
		m.Tick()
	}
	for _, c := range sh.clusters {
		c.Tick()
	}
	for _, g := range sh.gpus {
		g.Tick()
	}
	for _, c := range sh.cpus {
		c.Tick()
	}
}

// gpuCutLegal reports whether a shard boundary may fall before GPU
// index i: on a sharing-group boundary, and on a cluster boundary when
// a shared L1 organisation is active.
func (s *System) gpuCutLegal(i int) bool {
	if i%s.GPUProf.ShareGroup != 0 {
		return false
	}
	return len(s.Clusters) == 0 || i%ClusterCores == 0
}

// maxNodeShards returns the largest legal shard count for this
// system's node phase (1 means it cannot be split).
func (s *System) maxNodeShards() int {
	if s.Cfg.GPU.Org == config.L1DynEB {
		return 1 // setShared would race remote locality probes
	}
	max := par.MaxParts(len(s.GPUs), s.gpuCutLegal)
	if n := len(s.Mems); n > max {
		max = n
	}
	if n := len(s.CPUs); n > max {
		max = n
	}
	return max
}

// sliceRange returns part i of a padded Cuts partition: parts beyond
// what the boundary list admits are empty.
func sliceRange(bounds []int, i int) (int, int) {
	if i >= len(bounds)-1 {
		n := bounds[len(bounds)-1]
		return n, n
	}
	return bounds[i], bounds[i+1]
}

// buildShards partitions the node populations into k >= 1 contiguous
// shards and points every component at its shard's allocator and
// locality delta. Shard allocators draw from disjoint strided ID
// streams so concurrent creation never touches a shared counter; one
// shard hands out 1, 2, 3, ...
func (s *System) buildShards(k int) {
	gpuB := par.Cuts(len(s.GPUs), k, s.gpuCutLegal)
	memB := par.Cuts(len(s.Mems), k, nil)
	cpuB := par.Cuts(len(s.CPUs), k, nil)
	s.shards = make([]*shard, k)
	for i := 0; i < k; i++ {
		sh := &shard{}
		sh.al.initIDs(uint64(i+1), uint64(k))
		lo, hi := sliceRange(gpuB, i)
		sh.gpus = s.GPUs[lo:hi]
		for _, g := range sh.gpus {
			g.al = &sh.al
			g.loc = &sh.loc
		}
		// A cluster belongs to the shard owning its first core; legal
		// cuts fall on cluster boundaries, so it lies entirely inside.
		for _, c := range s.Clusters {
			first := c.id * ClusterCores
			if first >= lo && first < hi {
				sh.clusters = append(sh.clusters, c)
			}
		}
		lo, hi = sliceRange(memB, i)
		sh.mems = s.Mems[lo:hi]
		for _, m := range sh.mems {
			m.al = &sh.al
		}
		lo, hi = sliceRange(cpuB, i)
		sh.cpus = s.CPUs[lo:hi]
		for _, c := range sh.cpus {
			s.allocOf[c.Node] = &sh.al
		}
		s.shards[i] = sh
	}
}

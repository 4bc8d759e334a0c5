package core

import (
	"fmt"

	"delrep/internal/config"
	"delrep/internal/noc"
	"delrep/internal/stats"
)

// StatsDigest folds the system's observable end-state — cycle and
// packet counters, every per-node stats block, in-flight queue depths,
// and the per-network flit/latency statistics — into one 64-bit value.
// Two runs of the same configuration and seed must produce identical
// digests; any divergence means something nondeterministic (map
// iteration, an unseeded RNG, wall-clock coupling) leaked into the
// simulated state. This is the dynamic counterpart of the invariants
// cmd/simlint checks statically.
func (s *System) StatsDigest() uint64 {
	var d stats.Digest
	d.Int64(s.cycle)
	d.Int64(s.warmed)
	// Total packets created across the shard allocators. The split of
	// the count (and the IDs handed out) is an execution detail; the
	// total is a pure function of the simulated protocol and so matches
	// bit-for-bit at every shard count.
	var created uint64
	for _, sh := range s.shards {
		created += sh.al.created
	}
	d.Uint64(created)
	d.Int64(s.loc.samples)
	d.Int64(s.loc.hits)
	d.Int64(s.loc.sharedSamples)
	d.Int64(s.loc.sharedHits)
	for i := range s.loadLat {
		d.Sampler(&s.loadLat[i])
	}
	for _, g := range s.GPUs {
		d.String(fmt.Sprintf("%+v", g.Stats))
		d.Int64(g.SM.Insts)
		d.Int64(g.mshr.Allocs)
		d.Int64(g.mshr.Merges)
		d.Int64(g.mshr.Full)
		d.Int64(int64(g.mshr.Len()))
		d.Int64(g.l1.Accesses)
		d.Int64(g.l1.Hits)
		d.Int64(int64(len(g.frq)))
		d.Int64(int64(len(g.outReq)))
		d.Int64(int64(len(g.outRep)))
		d.Float64(g.rpEwma)
	}
	for _, c := range s.CPUs {
		d.Int64(c.Completed)
		d.Int64(c.Issued)
		d.Int64(c.ThrottleMLP)
		d.Int64(int64(c.Outstanding()))
		d.Sampler(&c.Lat)
	}
	for _, m := range s.Mems {
		d.String(fmt.Sprintf("%+v", m.Stats))
		d.Int64(m.mc.ServedReads)
		d.Int64(m.mc.ServedWrites)
		d.Float64(m.mc.AvgLatency())
		d.Int64(m.llc.Accesses)
		d.Int64(m.llc.Hits)
		d.Int64(m.mshr.Allocs)
		d.Int64(m.mshr.Merges)
		d.Int64(int64(len(m.wbQ)))
		d.Int64(int64(len(m.compQ)))
	}
	for _, c := range s.Clusters {
		d.String(fmt.Sprintf("%+v", c.Stats))
	}
	s.digestNet(&d, s.ReqNet)
	if s.RepNet != s.ReqNet {
		s.digestNet(&d, s.RepNet)
	}
	// The derived results fold in the float aggregation paths too.
	d.String(fmt.Sprintf("%+v", s.Collect()))
	return d.Sum64()
}

func (s *System) digestNet(d *stats.Digest, n *noc.Network) {
	d.String(n.Label)
	for _, c := range []noc.Class{noc.ClassRequest, noc.ClassReply} {
		d.Int64(n.InjectedFlits(c))
		d.Int64(n.EjectedFlits(c))
	}
	for p := range n.PktLat {
		d.Sampler(&n.PktLat[p])
	}
	d.Int64(n.FlitHops())
	for _, ni := range n.NIs {
		d.Int64(ni.EjFlitsByClass[noc.ClassRequest])
		d.Int64(ni.EjFlitsByClass[noc.ClassReply])
	}
}

// AuditRun is one determinism-audit execution: the workload is run to
// completion and summarized by its digest.
type AuditRun struct {
	Cycles  int64
	Digest  uint64
	Results Results
	// Workers is the engine-effective worker count the run executed
	// with: the requested parallelism after the engine clamps it to
	// what the topology and node population can use (at least 1).
	// Execution metadata only — it never enters the canonical Result.
	Workers int
}

// RunAudit builds a system, runs the configured warm-up and
// measurement window, and returns the end-state digest. The
// determinism audit runs it twice per configuration and requires
// bit-identical outcomes.
func RunAudit(cfg config.Config, gpuBench, cpuBench string) AuditRun {
	a, err := RunAuditCtrl(RunControl{}, cfg, gpuBench, cpuBench)
	if err != nil {
		// Unreachable: a zero RunControl has no context to cancel.
		panic(err)
	}
	return a
}

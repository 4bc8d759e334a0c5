package core

import (
	"fmt"
	"strings"
	"time"
)

// PhaseProfile accumulates per-phase wall time across a run: where
// the system tick spends its time. Attach one with SetPhaseProfile
// before running; Run then steps the cycle through profiledStep, which
// calls the same phase methods as Tick with a timestamp between them.
//
// The instrumented step lives here, outside the Tick call graph,
// deliberately: wall-clock reads are banned from per-cycle entry
// points (simlint's tickpurity analyzer), and profiling is a
// measurement harness around the tick phases, not part of them.
// Profiling never touches simulated state, so profiled runs stay
// bit-identical to unprofiled ones.
type PhaseProfile struct {
	Cycles int64

	Begin       time.Duration // blocking samples, budget resets
	NetCompute  time.Duration // both networks' compute steps
	NetCommit   time.Duration // both networks' packet ejection
	NodeCompute time.Duration // the node phase
	Serial      time.Duration // end-of-cycle residue (flush, observer)

	// NodeCommit is always zero: the node phase has no commit.
	//
	// Deprecated: the field stays because the benchmark module still
	// reads it.
	NodeCommit time.Duration
}

// Total returns the wall time across all phases.
func (p *PhaseProfile) Total() time.Duration {
	return p.Begin + p.NetCompute + p.NetCommit + p.NodeCompute + p.Serial
}

// String renders the breakdown as a small table.
func (p *PhaseProfile) String() string {
	t := p.Total()
	var b strings.Builder
	fmt.Fprintf(&b, "phase breakdown over %d cycles (total %v):\n", p.Cycles, t.Round(time.Millisecond))
	row := func(name string, d time.Duration) {
		pct := 0.0
		if t > 0 {
			pct = 100 * float64(d) / float64(t)
		}
		fmt.Fprintf(&b, "  %-12s %8s  %5.1f%%\n", name, d.Round(time.Microsecond), pct)
	}
	row("begin", p.Begin)
	row("net-compute", p.NetCompute)
	row("net-commit", p.NetCommit)
	row("node-compute", p.NodeCompute)
	row("residue", p.Serial)
	return b.String()
}

// SetPhaseProfile attaches (or, with nil, detaches) a phase profile.
// May be called at any tick boundary.
func (s *System) SetPhaseProfile(p *PhaseProfile) { s.prof = p }

// stamp is the profiler's clock read. All wall-clock access in this
// package funnels through here: the timestamps only ever feed the
// PhaseProfile buckets, never simulated state.
func stamp() time.Time {
	//simlint:ignore rngsource profiler wall-clock timestamps never reach the simulation or its digests
	return time.Now()
}

// profiledStep is Tick with a timestamp between phases; each
// network's compute and commit steps are timed apart.
func (s *System) profiledStep() {
	p := s.prof
	last := stamp()
	lap := func(d *time.Duration) {
		now := stamp()
		*d += now.Sub(last)
		last = now
	}
	s.begin()
	lap(&p.Begin)
	for _, n := range s.nets {
		n.Compute()
		lap(&p.NetCompute)
		n.Commit()
		lap(&p.NetCommit)
	}
	s.tickNodes()
	lap(&p.NodeCompute)
	s.endCycle()
	lap(&p.Serial)
	p.Cycles++
}

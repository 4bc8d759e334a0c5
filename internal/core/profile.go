package core

import (
	"fmt"
	"strings"
	"time"
)

// PhaseProfile accumulates per-phase wall time across a run: the
// Amdahl breakdown of the system tick. Attach one with
// SetPhaseProfile before running; Run then steps the cycle through
// profiledStep, which calls the same five phase methods as Tick with a
// timestamp between them.
//
// The instrumented step lives here, outside the Tick call graph,
// deliberately: wall-clock reads are banned from per-cycle entry
// points (simlint's tickpurity analyzer), and profiling is a
// measurement harness around the tick phases, not part of them.
// Profiling never touches simulated state, so profiled runs stay
// bit-identical to unprofiled ones.
type PhaseProfile struct {
	Cycles int64

	// The dispatched phase (what more workers divide).
	NetCompute time.Duration // network tile sections

	// Coordinator-only phases (the Amdahl floor).
	Begin       time.Duration // blocking samples, budget resets
	NetCommit   time.Duration // stats folds + packet ejection
	NodeCompute time.Duration // the node phase
	Serial      time.Duration // end-of-cycle residue (flush, observer)

	// NodeCommit is always zero: the node phase has no commit. The
	// field stays because the benchmark module still reads it.
	NodeCommit time.Duration
}

// Total returns the wall time across all phases.
func (p *PhaseProfile) Total() time.Duration {
	return p.Begin + p.NetCompute + p.NetCommit + p.NodeCompute + p.Serial
}

// SerialFraction returns the fraction of wall time spent in the
// serial phases — the Amdahl limit on further worker scaling.
func (p *PhaseProfile) SerialFraction() float64 {
	t := p.Total()
	if t == 0 {
		return 0
	}
	return float64(t-p.NetCompute) / float64(t)
}

// String renders the breakdown as a small table.
func (p *PhaseProfile) String() string {
	t := p.Total()
	var b strings.Builder
	fmt.Fprintf(&b, "phase breakdown over %d cycles (total %v):\n", p.Cycles, t.Round(time.Millisecond))
	row := func(name string, d time.Duration, parallel bool) {
		pct := 0.0
		if t > 0 {
			pct = 100 * float64(d) / float64(t)
		}
		kind := "serial"
		if parallel {
			kind = "parallel"
		}
		fmt.Fprintf(&b, "  %-12s %8s  %5.1f%%  (%s)\n", name, d.Round(time.Microsecond), pct, kind)
	}
	row("begin", p.Begin, false)
	row("net-compute", p.NetCompute, true)
	row("net-commit", p.NetCommit, false)
	row("node-compute", p.NodeCompute, false)
	row("residue", p.Serial, false)
	fmt.Fprintf(&b, "  serial fraction: %.1f%%\n", 100*p.SerialFraction())
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

// profiledStep is Tick with a timestamp between phases. The dispatch
// cost of the network compute is attributed to its bucket (it is what
// a worker-count scan amortizes).
func (s *System) profiledStep() {
	t0 := stamp()
	s.begin()
	t1 := stamp()
	s.netCompute()
	t2 := stamp()
	s.netCommit()
	t3 := stamp()
	s.tickNodes()
	t4 := stamp()
	s.endCycle()
	t5 := stamp()

	p := s.prof
	p.Cycles++
	p.Begin += t1.Sub(t0)
	p.NetCompute += t2.Sub(t1)
	p.NetCommit += t3.Sub(t2)
	p.NodeCompute += t4.Sub(t3)
	p.Serial += t5.Sub(t4)
}

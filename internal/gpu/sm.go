// Package gpu models the GPU streaming multiprocessor (SM): a set of
// concurrent warps issued by a greedy-then-oldest (GTO) scheduler. Each
// warp alternates compute phases with memory phases and barriers on its
// outstanding loads, giving the SM the latency tolerance and burst
// injection behaviour that characterise accelerator cores.
package gpu

import (
	"delrep/internal/cache"
	"delrep/internal/config"
	"delrep/internal/workload"
)

// AccessResult is the immediate outcome of an L1 access.
type AccessResult int

const (
	// AccessHit completed in the L1; the warp continues.
	AccessHit AccessResult = iota
	// AccessMiss is outstanding; LoadDone will be called later.
	AccessMiss
	// AccessBlocked means a resource (MSHR, write budget, outbox) is
	// unavailable and stays so until the memory port's owner calls
	// SM.Unblock: the refusal is memoised, and the instruction is not
	// presented again before then.
	AccessBlocked
	// AccessBusy is a refusal that can lapse on its own (the per-cycle
	// L1 port budget) or that the port counts (a full shared-L1 slice
	// queue): the instruction is presented again every cycle.
	AccessBusy
)

// MemPort is the SM's interface to the memory system (implemented by
// the core package's GPU core, which owns the L1 organisation). An
// implementation that returns AccessBlocked promises that presenting
// the same access again would do nothing but refuse it until the
// implementation calls SM.Unblock: every event that could turn the
// refusal into an acceptance (or into a refusal with a side effect)
// must call it.
type MemPort interface {
	Access(sm int, line cache.Addr, write bool, warp int) AccessResult
}

type warpState uint8

const (
	warpCompute warpState = iota
	warpMem
	warpBarrier
)

// warp is one concurrent warp's phase state machine. A drawn memory
// address is held in pending state until the access is accepted, so a
// Blocked access retries the same address (discarding it would bias the
// reference stream toward hits under resource pressure). refusedAt is
// the SM epoch at which that access last returned AccessBlocked (0:
// never); while it equals the current epoch the warp is passed over.
type warp struct {
	state       warpState
	computeLeft int
	loadsLeft   int
	outstanding int
	hasPending  bool
	pendLine    cache.Addr
	pendWrite   bool
	refusedAt   uint64
}

// SM is one streaming multiprocessor.
type SM struct {
	ID    int // GPU core index (0-based among GPU cores)
	cfg   config.GPU
	prof  workload.GPUProfile
	gen   *workload.AddrGen
	mem   MemPort
	warps []warp
	cur   int // GTO scheduler pointer
	// barriered counts warps in warpBarrier; when every warp is
	// barriered the Tick fast path skips the scheduler scan entirely.
	barriered int
	// epoch is the refusal epoch, advanced by Unblock. A refusal whose
	// inputs have not changed is not re-evaluated: a warp refused at the
	// current epoch is skipped, and an SM whose whole scan issued
	// nothing at the current epoch (stalledAt; cleared by a LoadDone
	// wake) stalls without scanning. Skipping is exact because a
	// memoised refusal mutates nothing and the scan it shortens leaves
	// cur where it started.
	epoch     uint64
	stalledAt uint64

	// Statistics.
	Insts       int64
	MemOps      int64
	StallCycles int64
	IssueCycles int64
}

// NewSM builds an SM running the given benchmark profile.
func NewSM(id int, cfg config.GPU, prof workload.GPUProfile, gen *workload.AddrGen, mem MemPort) *SM {
	sm := &SM{ID: id, cfg: cfg, prof: prof, gen: gen, mem: mem,
		warps: make([]warp, cfg.WarpsPerSM), epoch: 1}
	for i := range sm.warps {
		// Stagger warp phases so bursts ramp up rather than lockstep.
		sm.warps[i] = warp{state: warpCompute, computeLeft: 1 + (i*prof.ComputeLen)/cfg.WarpsPerSM}
	}
	return sm
}

// Unblock tells the SM that a resource an AccessBlocked refusal waited
// on may have become available: refused warps are presented again. It
// may be called at any time, including from inside Access.
func (s *SM) Unblock() { s.epoch++ }

// Tick issues up to IssueWidth instructions using GTO scheduling:
// stick with the current warp while it can issue, else advance.
func (s *SM) Tick() {
	if s.barriered == len(s.warps) || s.stalledAt == s.epoch {
		// Every warp waits on outstanding loads or on a refusal that
		// cannot have lapsed: the scheduler scan would try each warp
		// once, issue nothing, and leave cur where it started (n
		// advances mod n). Equivalent to a stall.
		s.StallCycles++
		return
	}
	issued := 0
	n := len(s.warps)
	tried := 0
	start := s.epoch
	busy := false
	for issued < s.cfg.IssueWidth && tried < n {
		w := &s.warps[s.cur]
		if w.state != warpBarrier && w.refusedAt != s.epoch {
			switch s.issueOne(s.cur, w) {
			case AccessBlocked:
				w.refusedAt = s.epoch
			case AccessBusy:
				busy = true
			default:
				issued++
				tried = 0
				if w.state == warpBarrier {
					s.cur = (s.cur + 1) % n
				}
				continue
			}
		}
		// Barriered or refused: try another warp.
		s.cur = (s.cur + 1) % n
		tried++
	}
	if issued > 0 {
		s.IssueCycles++
		return
	}
	s.StallCycles++
	if !busy && s.epoch == start {
		// Every non-barriered warp holds a refusal memoised at this
		// epoch: until Unblock or a LoadDone wake, the scan is a no-op.
		s.stalledAt = start
	}
}

// issueOne attempts to issue one instruction from the non-barriered
// warp w (index idx). It returns the refusal when the memory system
// turns the instruction away, and AccessHit or AccessMiss when an
// instruction was issued.
func (s *SM) issueOne(idx int, w *warp) AccessResult {
	if w.state == warpCompute {
		w.computeLeft--
		s.Insts++
		if w.computeLeft <= 0 {
			w.state = warpMem
			w.loadsLeft = s.prof.PhaseLoads
		}
		return AccessHit
	}
	if !w.hasPending {
		w.pendLine, w.pendWrite = s.gen.Next()
		w.hasPending = true
	}
	res := s.mem.Access(s.ID, w.pendLine, w.pendWrite, idx)
	if res == AccessBlocked || res == AccessBusy {
		return res
	}
	w.hasPending = false
	s.Insts++
	s.MemOps++
	w.loadsLeft--
	if res == AccessMiss && !w.pendWrite {
		w.outstanding++
	}
	if w.loadsLeft <= 0 {
		if w.outstanding > 0 {
			w.state = warpBarrier
			s.barriered++
		} else {
			s.newPhase(w)
		}
	}
	return res
}

// newPhase restarts a warp's compute phase.
func (s *SM) newPhase(w *warp) {
	w.state = warpCompute
	w.computeLeft = s.prof.ComputeLen
}

// LoadDone signals that one outstanding load of the given warp
// completed. It is safe to call in any cycle phase.
func (s *SM) LoadDone(warpIdx int) {
	w := &s.warps[warpIdx]
	if w.outstanding <= 0 {
		panic("gpu: LoadDone without outstanding load")
	}
	w.outstanding--
	if w.outstanding == 0 && w.state == warpBarrier {
		s.barriered--
		s.newPhase(w)
		s.stalledAt = 0 // a warp can issue again: a stalled SM must rescan
	}
}

// IPC returns instructions per cycle over the given cycle count.
func (s *SM) IPC(cycles int64) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(s.Insts) / float64(cycles)
}

// ResetStats zeroes the instruction counters (end of warmup).
func (s *SM) ResetStats() {
	s.Insts, s.MemOps, s.StallCycles, s.IssueCycles = 0, 0, 0, 0
}

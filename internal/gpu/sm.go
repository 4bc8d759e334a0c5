// Package gpu models the GPU streaming multiprocessor (SM): a set of
// concurrent warps issued by a greedy-then-oldest (GTO) scheduler. Each
// warp alternates compute phases with memory phases and barriers on its
// outstanding loads, giving the SM the latency tolerance and burst
// injection behaviour that characterise accelerator cores.
package gpu

import (
	"fmt"

	"delrep/internal/cache"
	"delrep/internal/config"
	"delrep/internal/workload"
)

// AccessResult is the immediate outcome of an L1 access.
type AccessResult uint8

const (
	// AccessHit completed in the L1; the warp continues.
	AccessHit AccessResult = iota
	// AccessMiss is outstanding; LoadDone will be called later.
	AccessMiss
	// AccessBusy is a refusal that can lapse on its own (the per-cycle
	// L1 port budget) or that the port counts (a full shared-L1 slice
	// queue): the instruction is presented again every cycle.
	AccessBusy
	// AccessMSHRFull refuses a read that neither hits nor merges while
	// every MSHR entry is in use.
	AccessMSHRFull
	// AccessOutboxFull refuses a read that neither hits nor merges, or a
	// store, while the request outbox is full.
	AccessOutboxFull
	// AccessStoresFull refuses a store while the outstanding
	// write-through budget is spent.
	AccessStoresFull
	accessResults
)

// Refused reports whether the access was turned away: the instruction
// did not issue and is presented again later.
func (r AccessResult) Refused() bool { return r >= AccessBusy }

// String names the result (panic messages, test failures).
func (r AccessResult) String() string {
	if r < accessResults {
		return [...]string{"hit", "miss", "busy", "MSHR full", "outbox full", "stores full"}[r]
	}
	return "???"
}

// Resource is a memory-port resource whose exhaustion one named
// refusal reports: MSHRFile refuses with AccessMSHRFull, RequestOutbox
// with AccessOutboxFull, StoreBudget with AccessStoresFull.
type Resource uint8

const (
	MSHRFile Resource = iota
	RequestOutbox
	StoreBudget
)

// refusal is the named refusal that reports r full.
func (r Resource) refusal() AccessResult { return AccessMSHRFull + AccessResult(r) }

// MemPort is the SM's interface to the memory system (implemented by
// the core package's GPU core, which owns the L1 organisation). A
// named refusal (AccessMSHRFull, AccessOutboxFull, AccessStoresFull)
// is a promise: while the port reports its resource full through
// SM.SetFull, presenting the same access again would do nothing but
// refuse it — unless the refused access is a read whose line has since
// become resident or outstanding, which the port reports through
// SM.UnblockLine. Every event that could turn a named refusal into an
// acceptance (or into a refusal with a side effect) must make one of
// those calls, or SM.Unblock when it changes every access's path.
type MemPort interface {
	Access(sm int, line cache.Addr, write bool, warp int) AccessResult
}

// AddrSource draws the address of each memory instruction the SM
// issues (workload.AddrGen; tests script it).
type AddrSource interface {
	Next() (line cache.Addr, write bool)
}

type warpState uint8

const (
	warpCompute warpState = iota
	warpMem
	warpBarrier
)

// warp is one concurrent warp's phase state machine. A drawn memory
// address is held in pending state until the access is accepted, so a
// refused access retries the same address (discarding it would bias the
// reference stream toward hits under resource pressure). refusal is the
// named refusal that access last met (AccessHit: none, or presented
// since); while the SM holds that refusal's resource full the warp is
// passed over.
type warp struct {
	state       warpState
	computeLeft int
	loadsLeft   int
	outstanding int
	hasPending  bool
	pendLine    cache.Addr
	pendWrite   bool
	refusal     AccessResult
}

// SM is one streaming multiprocessor.
type SM struct {
	ID    int // GPU core index (0-based among GPU cores)
	cfg   config.GPU
	prof  workload.GPUProfile
	gen   AddrSource
	mem   MemPort
	warps []warp
	cur   int // GTO scheduler pointer
	// barriered counts warps in warpBarrier; when every warp is
	// barriered the Tick fast path skips the scheduler scan entirely.
	barriered int
	// full is the port's report of which resources are exhausted,
	// indexed by the named refusal (SetFull); the other entries stay
	// false. A warp whose memoised refusal is full is passed over.
	full [accessResults]bool
	// epoch advances whenever a memoised refusal may have lapsed (a
	// resource no longer full, a line wake, Unblock). An SM whose whole
	// scan issued nothing at the current epoch (stalledAt; cleared by a
	// LoadDone wake) stalls without scanning. Skipping is exact because
	// a memoised refusal mutates nothing and the scan it shortens leaves
	// cur where it started.
	epoch     uint64
	stalledAt uint64
	// DebugChecks presents every warp the memo passes over anyway and
	// panics unless the port refuses it: a missed SetFull or UnblockLine
	// site shows up here rather than as a digest drift.
	DebugChecks bool

	// Statistics.
	Insts       int64
	MemOps      int64
	StallCycles int64
	IssueCycles int64
}

// NewSM builds an SM running the given benchmark profile.
func NewSM(id int, cfg config.GPU, prof workload.GPUProfile, gen AddrSource, mem MemPort) *SM {
	sm := &SM{ID: id, cfg: cfg, prof: prof, gen: gen, mem: mem,
		warps: make([]warp, cfg.WarpsPerSM), epoch: 1}
	for i := range sm.warps {
		// Stagger warp phases so bursts ramp up rather than lockstep.
		sm.warps[i] = warp{state: warpCompute, computeLeft: 1 + (i*prof.ComputeLen)/cfg.WarpsPerSM}
	}
	return sm
}

// SetFull records whether resource r is exhausted. While it is, a warp
// refused for r is passed over; the port calls it wherever r's
// occupancy changes. It may be called at any time, including from
// inside Access.
func (s *SM) SetFull(r Resource, full bool) {
	i := r.refusal()
	if s.full[i] && !full {
		s.epoch++
	}
	s.full[i] = full
}

// UnblockLine tells the SM that line has become resident or
// outstanding: a read of it refused for a full MSHR file or outbox
// would now hit or merge, so it is presented again.
func (s *SM) UnblockLine(line cache.Addr) {
	for i := range s.warps {
		w := &s.warps[i]
		if w.refusal != AccessHit && w.pendLine == line && !w.pendWrite {
			w.refusal = AccessHit
			s.epoch++
		}
	}
}

// Unblock tells the SM that every access's path may have changed (an
// L1 organisation switch): all refused warps are presented again. It
// may be called at any time, including from inside Access.
func (s *SM) Unblock() {
	for i := range s.warps {
		s.warps[i].refusal = AccessHit
	}
	s.epoch++
}

// Tick issues up to IssueWidth instructions using GTO scheduling:
// stick with the current warp while it can issue, else advance.
func (s *SM) Tick() {
	if s.barriered == len(s.warps) || (s.stalledAt == s.epoch && !s.DebugChecks) {
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
		switch {
		case w.state == warpBarrier:
		case s.full[w.refusal]:
			if s.DebugChecks {
				s.checkMemo(s.cur, w)
			}
		default:
			res := s.issueOne(s.cur, w)
			w.refusal = AccessHit // presented: an older memo is void
			switch res {
			case AccessBusy:
				busy = true
			case AccessMSHRFull, AccessOutboxFull, AccessStoresFull:
				w.refusal = res
				// A refusal whose resource the port does not report
				// full is not passed over: the SM must scan next cycle.
				busy = busy || !s.full[res]
			default:
				issued++
				tried = 0
				if w.state != warpBarrier {
					continue
				}
				tried-- // moving past a warp that just issued is no try
			}
		}
		// Barriered or refused: try another warp.
		if s.cur++; s.cur == n {
			s.cur = 0
		}
		tried++
	}
	if issued > 0 {
		s.IssueCycles++
		return
	}
	s.StallCycles++
	if !busy && s.epoch == start {
		// Every non-barriered warp holds a refusal whose resource is
		// full: until a resource frees, a line wake, Unblock or a
		// LoadDone wake, the scan is a no-op.
		s.stalledAt = start
	}
}

// checkMemo presents a warp the memo passed over and panics unless the
// port refuses it. AccessBusy counts as a refusal: the port budget may
// already be spent this cycle.
func (s *SM) checkMemo(idx int, w *warp) {
	memo := w.refusal // an accepted access may clear it
	if res := s.mem.Access(s.ID, w.pendLine, w.pendWrite, idx); !res.Refused() {
		panic(fmt.Sprintf("gpu: SM %d warp %d passed over while %s (line %#x, write %v), but the port answered %s",
			s.ID, idx, memo, uint64(w.pendLine), w.pendWrite, res))
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
	if res.Refused() {
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

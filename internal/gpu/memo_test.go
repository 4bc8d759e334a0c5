package gpu

import (
	"fmt"
	"math/rand"
	"testing"

	"delrep/internal/cache"
	"delrep/internal/config"
	"delrep/internal/workload"
)

// refTick is the memo-less GTO scheduler that SM.Tick must be
// indistinguishable from: it presents every non-barriered warp's
// instruction every cycle and never consults the refusal epoch.
func refTick(s *SM) {
	if s.barriered == len(s.warps) {
		s.StallCycles++
		return
	}
	issued, tried, n := 0, 0, len(s.warps)
	for issued < s.cfg.IssueWidth && tried < n {
		w := &s.warps[s.cur]
		if w.state != warpBarrier {
			if res := s.issueOne(s.cur, w); res != AccessBlocked && res != AccessBusy {
				issued++
				tried = 0
				if w.state == warpBarrier {
					s.cur = (s.cur + 1) % n
				}
				continue
			}
		}
		s.cur = (s.cur + 1) % n
		tried++
	}
	if issued > 0 {
		s.IssueCycles++
	} else {
		s.StallCycles++
	}
}

// accepted is one access the scripted memory system accepted.
type accepted struct {
	cycle int
	warp  int
	line  cache.Addr
	write bool
	res   AccessResult
}

// scriptedMem is a seeded MemPort whose answers depend only on its own
// state and the per-cycle script, never on how often a refused access
// is presented — so a memoising and a memo-less scheduler see the same
// memory system. It has every refusal kind the real GPU core has:
//
//   - tokens (MSHR entries / outbox slots): none left is AccessBlocked,
//     and tokens only return in begin, which calls Unblock;
//   - a per-cycle port budget: exhausted is AccessBusy;
//   - a third of the reads take a "slice queue" path that needs no
//     token but is refused with AccessBusy, and the event counted,
//     whenever the per-cycle queueFull flag is up.
//
// Lines with hash%4 == 0 are resident: they hit regardless of tokens.
// Like the real core, it keeps the MemPort contract: an access refused
// with AccessBlocked would be refused again, without side effects,
// until the next Unblock.
type scriptedMem struct {
	sm          *SM
	rng         *rand.Rand
	cycle       int
	tokens      int
	budget      int
	queueFull   bool
	queueFullEv int
	outstanding []int // per warp, loads the script still owes a LoadDone
	calls       int
	log         []accepted
}

func (m *scriptedMem) begin(cycle int) {
	m.cycle = cycle
	m.budget = m.rng.Intn(4)
	m.queueFull = m.rng.Intn(5) == 0
	// Mostly nothing frees up, so SMs sit in memoised refusals for long
	// stretches; occasionally a burst of tokens returns.
	if m.rng.Intn(6) == 0 {
		m.tokens += 1 + m.rng.Intn(3)
		m.sm.Unblock()
	}
	for w := range m.outstanding {
		if m.outstanding[w] > 0 && m.rng.Intn(8) == 0 {
			m.outstanding[w]--
			m.sm.LoadDone(w)
		}
	}
}

func (m *scriptedMem) Access(_ int, line cache.Addr, write bool, warp int) AccessResult {
	m.calls++
	if m.budget <= 0 {
		return AccessBusy
	}
	res := AccessHit
	switch {
	case write:
		if m.tokens == 0 {
			return AccessBlocked
		}
		m.tokens--
	case line%4 == 0:
		// resident: hits without a token
	case line%3 == 1:
		if m.queueFull {
			m.queueFullEv++
			return AccessBusy
		}
		m.outstanding[warp]++
		res = AccessMiss
	default:
		if m.tokens == 0 {
			return AccessBlocked
		}
		m.tokens--
		m.outstanding[warp]++
		res = AccessMiss
	}
	m.budget--
	m.log = append(m.log, accepted{m.cycle, warp, line, write, res})
	return res
}

func newScriptedSM(seed int64, warps int) (*SM, *scriptedMem) {
	cfg := config.Default().GPU
	cfg.WarpsPerSM = warps
	prof := workload.GPUProfileByName("HS")
	prof.ComputeLen = 3 // reach the memory phases quickly
	gen := workload.NewAddrGen(prof, 0, 40, config.CTARoundRobin, seed)
	mem := &scriptedMem{rng: rand.New(rand.NewSource(seed)), tokens: 2, outstanding: make([]int, warps)}
	sm := NewSM(0, cfg, prof, gen, mem)
	mem.sm = sm
	return sm, mem
}

// TestMemoisedSchedulerMatchesReference drives SM.Tick and the
// memo-less reference scheduler over the same seeded scripted memory
// system and requires them to be indistinguishable: identical counters
// and scheduler pointer every cycle, identical side-effect counts, and
// the exact same sequence of accepted accesses.
func TestMemoisedSchedulerMatchesReference(t *testing.T) {
	const cycles = 6000
	for _, warps := range []int{1, 5, 48} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("warps=%d/seed=%d", warps, seed), func(t *testing.T) {
				memo, memoMem := newScriptedSM(seed, warps)
				ref, refMem := newScriptedSM(seed, warps)
				for c := 0; c < cycles; c++ {
					memoMem.begin(c)
					refMem.begin(c)
					memo.Tick()
					refTick(ref)
					if memo.Insts != ref.Insts || memo.MemOps != ref.MemOps ||
						memo.StallCycles != ref.StallCycles || memo.IssueCycles != ref.IssueCycles ||
						memo.cur != ref.cur {
						t.Fatalf("cycle %d: memoised (insts %d memops %d stall %d issue %d cur %d) != reference (%d %d %d %d %d)",
							c, memo.Insts, memo.MemOps, memo.StallCycles, memo.IssueCycles, memo.cur,
							ref.Insts, ref.MemOps, ref.StallCycles, ref.IssueCycles, ref.cur)
					}
				}
				if len(memoMem.log) != len(refMem.log) {
					t.Fatalf("accepted %d accesses, reference accepted %d", len(memoMem.log), len(refMem.log))
				}
				for i := range refMem.log {
					if memoMem.log[i] != refMem.log[i] {
						t.Fatalf("accepted access %d: %+v, reference %+v", i, memoMem.log[i], refMem.log[i])
					}
				}
				if memoMem.queueFullEv != refMem.queueFullEv {
					t.Fatalf("queue-full events %d, reference %d", memoMem.queueFullEv, refMem.queueFullEv)
				}
				if memo.MemOps == 0 || memo.StallCycles == 0 {
					t.Fatalf("script exercised nothing: memops %d stalls %d", memo.MemOps, memo.StallCycles)
				}
				if warps > 1 && memoMem.calls >= refMem.calls {
					t.Fatalf("memoisation inactive: %d Access calls vs %d in the reference", memoMem.calls, refMem.calls)
				}
			})
		}
	}
}

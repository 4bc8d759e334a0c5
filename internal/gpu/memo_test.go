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
// instruction every cycle and never consults the refusal memos.
func refTick(s *SM) {
	if s.barriered == len(s.warps) {
		s.StallCycles++
		return
	}
	issued, tried, n := 0, 0, len(s.warps)
	for issued < s.cfg.IssueWidth && tried < n {
		w := &s.warps[s.cur]
		if w.state != warpBarrier {
			if res := s.issueOne(s.cur, w); !res.Refused() {
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
//   - three token pools, one per Resource: a primary read miss takes an
//     MSHR entry and an outbox slot, a store a store-budget unit and an
//     outbox slot, and an empty pool is its named refusal. Tokens return
//     only in begin (a fill, an outbox pop, a store ack), and every pool
//     change is reported through SetFull;
//   - lines: a filled line is resident and hits, an outstanding line
//     merges, and both events call UnblockLine, as the real core's
//     fillAndWake and Allocate do; begin also evicts resident lines;
//   - a per-cycle port budget: exhausted is AccessBusy;
//   - a third of the lines take a "slice queue" path that needs no
//     token but is refused with AccessBusy, and the event counted,
//     whenever the per-cycle queueFull flag is up;
//   - now and then an Unblock (an L1 organisation switch).
//
// Like the real core, it keeps the MemPort contract: a named refusal
// would be refused again, without side effects, while its pool stays
// empty and the read's line stays neither resident nor outstanding.
type scriptedMem struct {
	sm          *SM
	rng         *rand.Rand
	cycle       int
	caps        [3]int // per Resource
	tokens      [3]int
	budget      int
	queueFull   bool
	queueFullEv int
	resident    map[cache.Addr]bool
	residents   []cache.Addr   // the resident lines, in fill order
	misses      []scriptedMiss // the outstanding lines, in allocation order
	owed        []int          // per warp, slice-path loads still owed a LoadDone
	calls       int
	log         []accepted
}

// scriptedMiss is one outstanding line and the warps merged into it.
type scriptedMiss struct {
	line  cache.Addr
	warps []int
}

func (m *scriptedMem) take(r Resource) {
	m.tokens[r]--
	m.sm.SetFull(r, m.tokens[r] == 0)
}

func (m *scriptedMem) give(r Resource) {
	if m.tokens[r] < m.caps[r] {
		m.tokens[r]++
		m.sm.SetFull(r, false)
	}
}

func (m *scriptedMem) begin(cycle int) {
	m.cycle = cycle
	m.budget = m.rng.Intn(4)
	m.queueFull = m.rng.Intn(5) == 0
	// Mostly nothing frees up, so warps sit in memoised refusals for
	// long stretches.
	if len(m.misses) > 0 && m.rng.Intn(6) == 0 {
		i := m.rng.Intn(len(m.misses))
		f := m.misses[i]
		m.misses = append(m.misses[:i], m.misses[i+1:]...)
		m.resident[f.line] = true
		m.residents = append(m.residents, f.line)
		m.sm.UnblockLine(f.line)
		m.give(MSHRFile)
		for _, w := range f.warps {
			m.sm.LoadDone(w)
		}
	}
	if m.rng.Intn(8) == 0 {
		m.give(RequestOutbox)
	}
	if m.rng.Intn(8) == 0 {
		m.give(StoreBudget)
	}
	if len(m.residents) > 0 && m.rng.Intn(10) == 0 {
		i := m.rng.Intn(len(m.residents))
		delete(m.resident, m.residents[i])
		m.residents = append(m.residents[:i], m.residents[i+1:]...)
	}
	for w := range m.owed {
		if m.owed[w] > 0 && m.rng.Intn(8) == 0 {
			m.owed[w]--
			m.sm.LoadDone(w)
		}
	}
	if m.rng.Intn(300) == 0 {
		m.sm.Unblock()
	}
}

func (m *scriptedMem) Access(_ int, line cache.Addr, write bool, warp int) AccessResult {
	m.calls++
	if m.budget <= 0 {
		return AccessBusy
	}
	res := AccessHit
	if write {
		if m.tokens[StoreBudget] == 0 {
			return AccessStoresFull
		}
		if m.tokens[RequestOutbox] == 0 {
			return AccessOutboxFull
		}
		m.take(StoreBudget)
		m.take(RequestOutbox)
	} else if m.resident[line] {
		// hits without a token
	} else if line%3 == 1 {
		if m.queueFull {
			m.queueFullEv++
			return AccessBusy
		}
		m.owed[warp]++
		res = AccessMiss
	} else if i := m.outstanding(line); i >= 0 {
		m.misses[i].warps = append(m.misses[i].warps, warp)
		res = AccessMiss
	} else {
		if m.tokens[MSHRFile] == 0 {
			return AccessMSHRFull
		}
		if m.tokens[RequestOutbox] == 0 {
			return AccessOutboxFull
		}
		m.take(MSHRFile)
		m.take(RequestOutbox)
		m.misses = append(m.misses, scriptedMiss{line: line, warps: []int{warp}})
		m.sm.UnblockLine(line) // a refused read of this line now merges
		res = AccessMiss
	}
	m.budget--
	m.log = append(m.log, accepted{m.cycle, warp, line, write, res})
	return res
}

func (m *scriptedMem) outstanding(line cache.Addr) int {
	for i := range m.misses {
		if m.misses[i].line == line {
			return i
		}
	}
	return -1
}

// newScriptedSM builds an SM over a scripted memory system with the
// given number of tokens per resource, drawing every address from a
// hot set of lines lines (the generator clamps it to 48..288).
func newScriptedSM(seed int64, warps, tokens, lines int) (*SM, *scriptedMem) {
	cfg := config.Default().GPU
	cfg.WarpsPerSM = warps
	prof := workload.GPUProfileByName("HS")
	prof.ComputeLen = 3 // reach the memory phases quickly
	prof.ReuseP, prof.PrivLines = 1, 4*lines
	gen := workload.NewAddrGen(prof, 0, config.CTARoundRobin, seed)
	mem := &scriptedMem{rng: rand.New(rand.NewSource(seed)), caps: [3]int{tokens, tokens, tokens},
		tokens: [3]int{tokens, tokens, tokens}, resident: map[cache.Addr]bool{}, owed: make([]int, warps)}
	sm := NewSM(0, cfg, prof, gen, mem)
	mem.sm = sm
	return sm, mem
}

// matchReference drives SM.Tick and the memo-less reference scheduler
// over the same seeded scripted memory system and requires them to be
// indistinguishable: identical counters and scheduler pointer every
// cycle, identical side-effect counts, and the exact same sequence of
// accepted accesses. With checked, the memoised SM runs with
// DebugChecks, so every warp it passes over is presented anyway.
func matchReference(t *testing.T, seed int64, warps, tokens, lines, cycles int, checked bool) {
	t.Helper()
	memo, memoMem := newScriptedSM(seed, warps, tokens, lines)
	memo.DebugChecks = checked
	ref, refMem := newScriptedSM(seed, warps, tokens, lines)
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
	if !checked && warps > 1 && memoMem.calls >= refMem.calls {
		t.Fatalf("memoisation inactive: %d Access calls vs %d in the reference", memoMem.calls, refMem.calls)
	}
}

func TestMemoisedSchedulerMatchesReference(t *testing.T) {
	for _, warps := range []int{1, 5, 48} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("warps=%d/seed=%d", warps, seed), func(t *testing.T) {
				matchReference(t, seed, warps, 2, 48, 6000, false)
				matchReference(t, seed, warps, 2, 48, 2000, true)
			})
		}
	}
}

// FuzzMemoisedScheduler runs matchReference over generated seeds, warp
// counts (1..64), tokens per resource (1..8) and hot-set sizes, with
// and without DebugChecks.
func FuzzMemoisedScheduler(f *testing.F) {
	f.Add(int64(1), uint8(48), uint8(2), uint16(48))
	f.Add(int64(7), uint8(5), uint8(1), uint16(64))
	f.Add(int64(3), uint8(32), uint8(8), uint16(288))
	f.Fuzz(func(t *testing.T, seed int64, warps, tokens uint8, lines uint16) {
		w, k := 1+int(warps)%64, 1+int(tokens)%8
		matchReference(t, seed, w, k, int(lines), 1500, false)
		matchReference(t, seed, w, k, int(lines), 1500, true)
	})
}

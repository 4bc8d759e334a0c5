package gpu

import (
	"fmt"
	"strings"
	"testing"

	"delrep/internal/cache"
	"delrep/internal/config"
	"delrep/internal/workload"
)

// fakeMem scripts the memory system's responses.
type fakeMem struct {
	result   AccessResult
	accesses []cache.Addr
	warps    []int
	writes   int
}

func (f *fakeMem) Access(sm int, line cache.Addr, write bool, warp int) AccessResult {
	f.accesses = append(f.accesses, line)
	f.warps = append(f.warps, warp)
	if write {
		f.writes++
	}
	return f.result
}

func newTestSM(mem MemPort, warps int) *SM {
	cfg := config.Default().GPU
	cfg.WarpsPerSM = warps
	prof := workload.GPUProfileByName("HS")
	gen := workload.NewAddrGen(prof, 0, config.CTARoundRobin, 1)
	return NewSM(0, cfg, prof, gen, mem)
}

func TestComputeThenMemoryPhases(t *testing.T) {
	mem := &fakeMem{result: AccessHit}
	sm := newTestSM(mem, 1)
	for i := 0; i < 100; i++ {
		sm.Tick()
	}
	if sm.Insts == 0 || sm.MemOps == 0 {
		t.Fatalf("insts=%d memops=%d", sm.Insts, sm.MemOps)
	}
	// Phase structure: PhaseLoads memory ops per (ComputeLen + PhaseLoads).
	prof := workload.GPUProfileByName("HS")
	wantRatio := float64(prof.PhaseLoads) / float64(prof.PhaseLoads+prof.ComputeLen)
	got := float64(sm.MemOps) / float64(sm.Insts)
	if got < wantRatio*0.8 || got > wantRatio*1.2 {
		t.Fatalf("mem ratio %.3f, want ~%.3f", got, wantRatio)
	}
}

func TestHitsNeverBlockWarp(t *testing.T) {
	mem := &fakeMem{result: AccessHit}
	sm := newTestSM(mem, 4)
	for i := 0; i < 200; i++ {
		sm.Tick()
	}
	// With all hits, IPC should be at the issue-width bound.
	if got := sm.IPC(200); got < float64(config.Default().GPU.IssueWidth)*0.9 {
		t.Fatalf("IPC %.2f below issue bound", got)
	}
}

func TestMissBarriersWarp(t *testing.T) {
	mem := &fakeMem{result: AccessMiss}
	sm := newTestSM(mem, 1)
	for i := 0; i < 1000; i++ {
		sm.Tick()
	}
	// The single warp blocks at its first memory phase barrier.
	prof := workload.GPUProfileByName("HS")
	maxInsts := int64(prof.ComputeLen + prof.PhaseLoads + 2)
	if sm.Insts > maxInsts {
		t.Fatalf("insts=%d, want <= %d (warp should barrier)", sm.Insts, maxInsts)
	}
	if sm.StallCycles == 0 {
		t.Fatal("no stall cycles recorded")
	}
}

func TestLoadDoneWakesBarrier(t *testing.T) {
	mem := &fakeMem{result: AccessMiss}
	sm := newTestSM(mem, 1)
	for i := 0; i < 100; i++ {
		sm.Tick()
	}
	before := sm.Insts
	// Complete every outstanding load of warp 0.
	n := len(mem.accesses) - mem.writes
	for i := 0; i < n; i++ {
		sm.LoadDone(0)
	}
	for i := 0; i < 50; i++ {
		sm.Tick()
	}
	if sm.Insts <= before {
		t.Fatal("warp did not resume after LoadDone")
	}
}

func TestLoadDoneWithoutOutstandingPanics(t *testing.T) {
	sm := newTestSM(&fakeMem{result: AccessHit}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	sm.LoadDone(0)
}

// blockThenHit refuses the first N accesses with the given result, then
// hits.
type blockThenHit struct {
	refusal  AccessResult
	blocks   int
	accesses []cache.Addr
}

func (b *blockThenHit) Access(sm int, line cache.Addr, write bool, warp int) AccessResult {
	b.accesses = append(b.accesses, line)
	if b.blocks > 0 {
		b.blocks--
		return b.refusal
	}
	return AccessHit
}

// TestBlockedRetainsAddress is the regression test for the re-roll
// bias: a refused access must retry the same address, not draw afresh —
// every cycle for AccessBusy, after each Unblock for a named refusal
// whose resource the port reports full.
func TestBlockedRetainsAddress(t *testing.T) {
	for _, refusal := range []AccessResult{AccessBusy, AccessMSHRFull} {
		mem := &blockThenHit{refusal: refusal, blocks: 5}
		sm := newTestSM(mem, 1)
		sm.SetFull(MSHRFile, true)
		for i := 0; i < 50; i++ {
			if refusal == AccessMSHRFull {
				sm.Unblock()
			}
			sm.Tick()
		}
		if len(mem.accesses) < 6 {
			t.Fatalf("refusal %v: only %d accesses", refusal, len(mem.accesses))
		}
		first := mem.accesses[0]
		for i := 1; i <= 5; i++ {
			if mem.accesses[i] != first {
				t.Fatalf("refusal %v: retry %d used address %d, want %d", refusal, i, mem.accesses[i], first)
			}
		}
	}
}

func TestGTOSwitchesOnBlock(t *testing.T) {
	// With many warps and a blocking memory system, multiple warps
	// should still make compute progress.
	mem := &fakeMem{result: AccessMSHRFull}
	sm := newTestSM(mem, 8)
	for i := 0; i < 200; i++ {
		sm.Tick()
	}
	seen := map[int]bool{}
	for _, w := range mem.warps {
		seen[w] = true
	}
	if len(seen) < 2 {
		t.Fatalf("GTO never switched warps: %v", seen)
	}
}

func TestResetStats(t *testing.T) {
	sm := newTestSM(&fakeMem{result: AccessHit}, 2)
	for i := 0; i < 50; i++ {
		sm.Tick()
	}
	sm.ResetStats()
	if sm.Insts != 0 || sm.MemOps != 0 || sm.IPC(10) != 0 {
		t.Fatal("stats not reset")
	}
}

// missedWakeMem refuses the first access for a full MSHR file and then
// accepts everything while still reporting the file full: a port with
// a missed wake site.
type missedWakeMem struct {
	sm    *SM
	calls int
}

func (m *missedWakeMem) Access(sm int, line cache.Addr, write bool, warp int) AccessResult {
	m.calls++
	if m.calls == 1 {
		m.sm.SetFull(MSHRFile, true)
		return AccessMSHRFull
	}
	return AccessHit
}

// TestDebugChecksCatchesMissedWake: the memo passes the refused warp
// over for as long as the port reports its resource full; DebugChecks
// presents it anyway and panics on the acceptance.
func TestDebugChecksCatchesMissedWake(t *testing.T) {
	for _, checked := range []bool{false, true} {
		mem := &missedWakeMem{}
		sm := newTestSM(mem, 1)
		mem.sm = sm
		sm.DebugChecks = checked
		panicked := func() (msg any) {
			defer func() { msg = recover() }()
			for i := 0; i < 50; i++ {
				sm.Tick()
			}
			return nil
		}()
		switch {
		case !checked && (panicked != nil || mem.calls != 1):
			t.Fatalf("unchecked: %d accesses (panic %v), want the refused one only", mem.calls, panicked)
		case checked && !strings.Contains(fmt.Sprint(panicked), "passed over while MSHR full"):
			t.Fatalf("checked: panic %v, want the missed wake named", panicked)
		}
	}
}

package core

import (
	"testing"

	"delrep/internal/cache"
	"delrep/internal/config"
	"delrep/internal/gpu"
	"delrep/internal/noc"
)

// scriptPort is a test SM's memory port: it forwards every access to
// the GPU core and records which warp presented it and what the core
// answered.
type scriptPort struct {
	g     *GPUCore
	n     int   // warps
	warps []int // presented accesses, in order
	res   []gpu.AccessResult
}

func (p *scriptPort) Access(sm int, line cache.Addr, write bool, warp int) gpu.AccessResult {
	r := p.g.Access(sm, line, write, warp)
	p.warps = append(p.warps, warp)
	p.res = append(p.res, r)
	return r
}

type scriptedAccess struct {
	line  cache.Addr
	write bool
}

// scriptSource is a test SM's address source: draw k is script[k mod
// len(script)].
type scriptSource struct {
	script []scriptedAccess
	draws  int
}

func (s *scriptSource) Next() (cache.Addr, bool) {
	a := s.script[s.draws%len(s.script)]
	s.draws++
	return a.line, a.write
}

// scriptedCore rebuilds GPU core 0's SM with one warp per scripted
// access, one compute instruction per phase and one memory operation
// per phase, its addresses drawn from the script and its accesses
// recorded by a scriptPort. Warp i makes the SM's draw i (warp 0
// presents in cycle 1, warp 1 in cycle 2), so each warp's first access
// is its scripted one. The SM counts an outstanding load exactly when
// a scripted read misses (stores never return AccessMiss).
func scriptedCore(sys *System, script ...scriptedAccess) (*GPUCore, *scriptPort) {
	g := sys.GPUs[0]
	port := &scriptPort{g: g, n: len(script)}
	gcfg := sys.Cfg.GPU
	gcfg.WarpsPerSM = len(script)
	prof := sys.GPUProf
	prof.ComputeLen, prof.PhaseLoads = 1, 1
	g.SM = gpu.NewSM(g.Idx, gcfg, prof, &scriptSource{script: script}, port)
	return g, port
}

// smTick runs one SM cycle with a fresh L1 port budget, without the
// core's outbox drain or FRQ service.
func smTick(g *GPUCore) {
	g.BeginCycle()
	g.SM.Tick()
}

// refuse ticks the SM until every scripted warp has presented its
// access and been refused with want, then checks the refusals are
// memoised: further cycles present nothing.
func refuse(t *testing.T, g *GPUCore, port *scriptPort, want gpu.AccessResult) {
	t.Helper()
	for i := 0; i < 4 && len(port.warps) < port.n; i++ {
		smTick(g)
	}
	if len(port.warps) != port.n {
		t.Fatalf("%d accesses presented, want one per warp (%d)", len(port.warps), port.n)
	}
	for i, r := range port.res {
		if r != want {
			t.Fatalf("access %d (warp %d) = %v, want %v", i, port.warps[i], r, want)
		}
	}
	for i := 0; i < 3; i++ {
		smTick(g)
	}
	if len(port.warps) != port.n {
		t.Fatalf("memoised refusals were presented again: %d accesses, want %d", len(port.warps), port.n)
	}
}

// presentedAgain requires that the SM cycle just run presented exactly
// the given warps with the given outcomes, after `before` earlier
// accesses.
func presentedAgain(t *testing.T, port *scriptPort, before int, warps []int, res []gpu.AccessResult) {
	t.Helper()
	gotW, gotR := port.warps[before:], port.res[before:]
	if len(gotW) != len(warps) {
		t.Fatalf("presented warps %v (results %v), want %v", gotW, gotR, warps)
	}
	for i := range warps {
		if gotW[i] != warps[i] || gotR[i] != res[i] {
			t.Fatalf("presented warps %v results %v, want %v %v", gotW, gotR, warps, res)
		}
	}
}

func fillOutbox(g *GPUCore) {
	for len(g.outReq) < outboxCap {
		g.sendLLCRead(cache.Addr(1<<20+len(g.outReq)), g.Node, false, 0, NetAcct{})
	}
}

// fillMSHR fills the MSHR file with lines no warp asks for, as primary
// misses of earlier accesses would.
func fillMSHR(g *GPUCore) []cache.Addr {
	var lines []cache.Addr
	for l := cache.Addr(1 << 21); !g.mshr.FullNow(); l++ {
		g.mshr.Allocate(l, mshrTarget{Warp: -1, Remote: -1})
		lines = append(lines, l)
	}
	g.noteMSHR()
	return lines
}

// spendStores spends the whole store budget, as stores awaiting their
// acks would.
func spendStores(g *GPUCore) {
	g.outWrites = g.sys.Cfg.GPU.MaxOutWrites
	g.noteStores()
}

func deliver(sys *System, g *GPUCore, m Msg) {
	p := sys.newPacket(sys.memNodes[0], g.Node, noc.ClassReply, noc.PrioGPU, 1, sys.al.msgOf(m))
	if !g.HandlePacket(p) {
		panic("test packet refused")
	}
}

// The tests below are the wake sites of DESIGN.md §9's memo table, one
// per site: a warp refused for a full resource is presented again in
// the very cycle its resource frees (or its line wakes), and not
// before. The TestMemo* tests after them are the negatives: an event
// that frees another resource, or wakes another line, leaves the
// refusal memoised.

func TestEpochBumpOutboxPop(t *testing.T) {
	sys := NewSystem(shortCfg(config.SchemeBaseline), "HS", "vips")
	g, port := scriptedCore(sys, scriptedAccess{line: 77})
	fillOutbox(g)
	refuse(t, g, port, gpu.AccessOutboxFull)
	// The whole core cycle: drainOutbox pops into the NI, the SM runs
	// after it and presents the read again — now a primary miss.
	g.BeginCycle()
	g.Tick()
	presentedAgain(t, port, 1, []int{0}, []gpu.AccessResult{gpu.AccessMiss})
}

func TestEpochBumpFill(t *testing.T) {
	sys := NewSystem(shortCfg(config.SchemeBaseline), "HS", "vips")
	g, port := scriptedCore(sys, scriptedAccess{line: 77})
	held := fillMSHR(g)
	refuse(t, g, port, gpu.AccessMSHRFull)
	deliver(sys, g, Msg{Type: MsgReply, Line: held[0], Kind: ReplyLLCHit})
	smTick(g)
	presentedAgain(t, port, 1, []int{0}, []gpu.AccessResult{gpu.AccessMiss})
}

func TestEpochBumpWriteAck(t *testing.T) {
	sys := NewSystem(shortCfg(config.SchemeBaseline), "HS", "vips")
	g, port := scriptedCore(sys, scriptedAccess{line: 77, write: true})
	spendStores(g)
	refuse(t, g, port, gpu.AccessStoresFull)
	deliver(sys, g, Msg{Type: MsgWriteAck, Line: 5})
	smTick(g)
	presentedAgain(t, port, 1, []int{0}, []gpu.AccessResult{gpu.AccessHit})
}

// TestEpochBumpMSHRAllocate is the line wake at Allocate: a read
// refused for a full MSHR file is presented again when another warp's
// miss makes its line outstanding, although that miss fills the file
// again — the read now merges.
func TestEpochBumpMSHRAllocate(t *testing.T) {
	sys := NewSystem(shortCfg(config.SchemeBaseline), "HS", "vips")
	g, port := scriptedCore(sys, scriptedAccess{line: 77}, scriptedAccess{line: 77})
	held := fillMSHR(g)
	refuse(t, g, port, gpu.AccessMSHRFull)
	// One entry frees; the scan resumes at warp 1, whose miss takes the
	// entry (the file is full again) and wakes warp 0's read of line 77.
	deliver(sys, g, Msg{Type: MsgReply, Line: held[0], Kind: ReplyLLCHit})
	smTick(g)
	presentedAgain(t, port, 2, []int{1, 0}, []gpu.AccessResult{gpu.AccessMiss, gpu.AccessMiss})
	if !g.mshr.FullNow() {
		t.Fatal("the MSHR file should be full again")
	}
}

func TestEpochBumpKernelFlush(t *testing.T) {
	sys := NewSystem(shortCfg(config.SchemeBaseline), "HS", "vips")
	g, port := scriptedCore(sys, scriptedAccess{line: 77})
	fillOutbox(g)
	refuse(t, g, port, gpu.AccessOutboxFull)
	sys.kernelFlush() // a conservative wake: the read is refused again
	smTick(g)
	presentedAgain(t, port, 1, []int{0}, []gpu.AccessResult{gpu.AccessOutboxFull})
}

func TestEpochBumpDynEBSwitch(t *testing.T) {
	sys := clusterSystem(t, config.L1DynEB)
	g, port := scriptedCore(sys,
		scriptedAccess{line: 77},              // read
		scriptedAccess{line: 88, write: true}) // write
	c := g.cluster
	fillOutbox(g)
	refuse(t, g, port, gpu.AccessOutboxFull) // private organisation: both refused on the full outbox
	// private -> shared: the read now queues on its slice; the write
	// still meets the full outbox (same store path in both organisations).
	c.setShared(true)
	smTick(g)
	presentedAgain(t, port, 2, []int{1, 0}, []gpu.AccessResult{gpu.AccessOutboxFull, gpu.AccessMiss})
	smTick(g)
	presentedAgain(t, port, 4, nil, nil)
	// shared -> private: the write refused under the shared organisation
	// is presented to the private path.
	c.setShared(false)
	smTick(g)
	presentedAgain(t, port, 4, []int{1}, []gpu.AccessResult{gpu.AccessOutboxFull})
}

// TestMemoMSHRRefusalOutlivesOtherResources: a read refused for a full
// MSHR file (its outbox full too) is not presented again by an outbox
// pop or a store ack; it is by the MSHR release.
func TestMemoMSHRRefusalOutlivesOtherResources(t *testing.T) {
	sys := NewSystem(shortCfg(config.SchemeBaseline), "HS", "vips")
	g, port := scriptedCore(sys, scriptedAccess{line: 77})
	held := fillMSHR(g)
	fillOutbox(g)
	g.outWrites = 1
	refuse(t, g, port, gpu.AccessMSHRFull)
	g.BeginCycle()
	g.Tick() // drainOutbox pops
	if len(g.outReq) == outboxCap {
		t.Fatal("the outbox did not drain")
	}
	presentedAgain(t, port, 1, nil, nil)
	deliver(sys, g, Msg{Type: MsgWriteAck, Line: 5})
	smTick(g)
	presentedAgain(t, port, 1, nil, nil)
	deliver(sys, g, Msg{Type: MsgReply, Line: held[0], Kind: ReplyLLCHit})
	smTick(g)
	presentedAgain(t, port, 1, []int{0}, []gpu.AccessResult{gpu.AccessMiss})
}

// TestMemoFillWakesOnlyItsLine: with the outbox full, reads of lines A
// and B are refused for it. A is then made outstanding behind the SM's
// back, so that its fill is the only event that can wake warp 0: the
// fill presents the read of A again (now a hit) and not the read of B,
// although it releases an MSHR entry.
func TestMemoFillWakesOnlyItsLine(t *testing.T) {
	const a, b = 77, 88
	sys := NewSystem(shortCfg(config.SchemeBaseline), "HS", "vips")
	g, port := scriptedCore(sys, scriptedAccess{line: a}, scriptedAccess{line: b})
	fillOutbox(g)
	refuse(t, g, port, gpu.AccessOutboxFull)
	g.mshr.Allocate(a, mshrTarget{Warp: -1, Remote: -1})
	deliver(sys, g, Msg{Type: MsgReply, Line: a, Kind: ReplyLLCHit})
	smTick(g)
	presentedAgain(t, port, 2, []int{0}, []gpu.AccessResult{gpu.AccessHit})
	// Warp 0 runs on; warp 1 stays memoised.
	for i := 0; i < 3; i++ {
		smTick(g)
	}
	for _, w := range port.warps[3:] {
		if w == 1 {
			t.Fatalf("the read of B was presented again: warps %v results %v", port.warps, port.res)
		}
	}
}

// TestMemoStoreRefusalIgnoresLineWake: a store refused for its spent
// budget is not presented again when a read makes its line outstanding
// (a line wake concerns reads only), nor when an MSHR entry frees.
func TestMemoStoreRefusalIgnoresLineWake(t *testing.T) {
	sys := NewSystem(shortCfg(config.SchemeBaseline), "HS", "vips")
	g, port := scriptedCore(sys,
		scriptedAccess{line: 77, write: true}, // refused: no store budget
		scriptedAccess{line: 77})              // primary read miss
	spendStores(g)
	// Cycle 1: warp 0 computes, presents its store and is refused;
	// warp 1 computes.
	smTick(g)
	presentedAgain(t, port, 0, []int{0}, []gpu.AccessResult{gpu.AccessStoresFull})
	// Cycle 2: warp 1's read allocates an MSHR entry for line 77;
	// warp 0 stays memoised.
	smTick(g)
	presentedAgain(t, port, 1, []int{1}, []gpu.AccessResult{gpu.AccessMiss})
	// The fill releases the entry and wakes warp 1's barrier; warp 0
	// stays memoised.
	deliver(sys, g, Msg{Type: MsgReply, Line: 77, Kind: ReplyLLCHit})
	smTick(g)
	smTick(g)
	for _, w := range port.warps[2:] {
		if w == 0 {
			t.Fatalf("the refused store was presented again: warps %v results %v", port.warps, port.res)
		}
	}
}

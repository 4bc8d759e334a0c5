package core

import (
	"testing"

	"delrep/internal/cache"
	"delrep/internal/config"
	"delrep/internal/gpu"
	"delrep/internal/noc"
	"delrep/internal/workload"
)

// scriptPort sits between a test SM and its GPU core: it replaces the
// address the SM drew with a per-warp scripted access, so a test
// decides exactly what each warp asks for, and records every access
// the SM presents and what the core answered.
type scriptPort struct {
	g      *GPUCore
	script []scriptedAccess // per warp
	warps  []int            // presented accesses, in order
	res    []gpu.AccessResult
}

type scriptedAccess struct {
	line  cache.Addr
	write bool
}

func (p *scriptPort) Access(sm int, _ cache.Addr, _ bool, warp int) gpu.AccessResult {
	a := p.script[warp]
	r := p.g.Access(sm, a.line, a.write, warp)
	p.warps = append(p.warps, warp)
	p.res = append(p.res, r)
	return r
}

// scriptedCore rebuilds GPU core 0's SM with one warp per scripted
// access, one compute instruction per phase and one memory operation
// per phase, all routed through a scriptPort. The SM's own draws are
// all reads, so it counts an outstanding load exactly when a scripted
// read misses (stores never return AccessMiss).
func scriptedCore(sys *System, script ...scriptedAccess) (*GPUCore, *scriptPort) {
	g := sys.GPUs[0]
	port := &scriptPort{g: g, script: script}
	gcfg := sys.Cfg.GPU
	gcfg.WarpsPerSM = len(script)
	prof := sys.GPUProf
	prof.ComputeLen, prof.PhaseLoads, prof.WriteFrac = 1, 1, 0
	gen := workload.NewAddrGen(prof, g.Idx, gcfg.CTASched, sys.Cfg.Seed)
	g.SM = gpu.NewSM(g.Idx, gcfg, prof, gen, port)
	return g, port
}

// smTick runs one SM cycle with a fresh L1 port budget, without the
// core's outbox drain or FRQ service.
func smTick(g *GPUCore) {
	g.BeginCycle()
	g.SM.Tick()
}

// refuse ticks the SM until every scripted warp has presented its
// access and been refused with AccessBlocked, then checks the refusals
// are memoised: further cycles present nothing.
func refuse(t *testing.T, g *GPUCore, port *scriptPort) {
	t.Helper()
	for i := 0; i < 4 && len(port.warps) < len(port.script); i++ {
		smTick(g)
	}
	if len(port.warps) != len(port.script) {
		t.Fatalf("%d accesses presented, want one per warp (%d)", len(port.warps), len(port.script))
	}
	for i, r := range port.res {
		if r != gpu.AccessBlocked {
			t.Fatalf("access %d (warp %d) = %v, want AccessBlocked", i, port.warps[i], r)
		}
	}
	for i := 0; i < 3; i++ {
		smTick(g)
	}
	if len(port.warps) != len(port.script) {
		t.Fatalf("memoised refusals were presented again: %d accesses, want %d", len(port.warps), len(port.script))
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

func fillMSHR(g *GPUCore) []cache.Addr {
	var lines []cache.Addr
	for l := cache.Addr(1 << 21); !g.mshr.FullNow(); l++ {
		g.mshr.Allocate(l, mshrTarget{Warp: -1, Remote: -1})
		lines = append(lines, l)
	}
	return lines
}

func deliver(sys *System, g *GPUCore, m Msg) {
	p := sys.newPacket(sys.memNodes[0], g.Node, noc.ClassReply, noc.PrioGPU, 1, sys.al.msgOf(m))
	if !g.HandlePacket(p) {
		panic("test packet refused")
	}
}

// The tests below are the epoch-bump inventory of DESIGN.md §9, one per
// site: a warp refused with AccessBlocked is presented again in the
// very cycle the site fires, and not before.

func TestEpochBumpOutboxPop(t *testing.T) {
	sys := NewSystem(shortCfg(config.SchemeBaseline), "HS", "vips")
	g, port := scriptedCore(sys, scriptedAccess{line: 77})
	fillOutbox(g)
	refuse(t, g, port)
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
	refuse(t, g, port)
	deliver(sys, g, Msg{Type: MsgReply, Line: held[0], Kind: ReplyLLCHit})
	smTick(g)
	presentedAgain(t, port, 1, []int{0}, []gpu.AccessResult{gpu.AccessMiss})
}

func TestEpochBumpWriteAck(t *testing.T) {
	sys := NewSystem(shortCfg(config.SchemeBaseline), "HS", "vips")
	g, port := scriptedCore(sys, scriptedAccess{line: 77, write: true})
	g.outWrites = sys.Cfg.GPU.MaxOutWrites
	refuse(t, g, port)
	deliver(sys, g, Msg{Type: MsgWriteAck, Line: 5})
	smTick(g)
	presentedAgain(t, port, 1, []int{0}, []gpu.AccessResult{gpu.AccessHit})
}

func TestEpochBumpMSHRAllocate(t *testing.T) {
	sys := NewSystem(shortCfg(config.SchemeBaseline), "HS", "vips")
	g, port := scriptedCore(sys,
		scriptedAccess{line: 77, write: true}, // refused: no write budget
		scriptedAccess{line: 88})              // primary read miss
	g.outWrites = sys.Cfg.GPU.MaxOutWrites
	// Cycle 1: warp 0 computes, presents its write and is refused;
	// warp 1 computes.
	smTick(g)
	presentedAgain(t, port, 0, []int{0}, []gpu.AccessResult{gpu.AccessBlocked})
	// Cycle 2: warp 1's read allocates an MSHR entry, and warp 0 is
	// presented again in the same cycle.
	smTick(g)
	presentedAgain(t, port, 1, []int{1, 0}, []gpu.AccessResult{gpu.AccessMiss, gpu.AccessBlocked})
	// Cycle 3: nothing changed since; warp 1 is barriered, warp 0 memoised.
	smTick(g)
	presentedAgain(t, port, 3, nil, nil)
}

func TestEpochBumpKernelFlush(t *testing.T) {
	sys := NewSystem(shortCfg(config.SchemeBaseline), "HS", "vips")
	g, port := scriptedCore(sys, scriptedAccess{line: 77})
	fillOutbox(g)
	refuse(t, g, port)
	sys.kernelFlush()
	smTick(g)
	presentedAgain(t, port, 1, []int{0}, []gpu.AccessResult{gpu.AccessBlocked})
}

func TestEpochBumpDynEBSwitch(t *testing.T) {
	sys := clusterSystem(t, config.L1DynEB)
	g, port := scriptedCore(sys,
		scriptedAccess{line: 77},              // read
		scriptedAccess{line: 88, write: true}) // write
	c := g.cluster
	fillOutbox(g)
	refuse(t, g, port) // private organisation: both refused on the full outbox
	// private -> shared: the read now queues on its slice; the write
	// still meets the full outbox (same store path in both organisations).
	c.setShared(true)
	smTick(g)
	presentedAgain(t, port, 2, []int{1, 0}, []gpu.AccessResult{gpu.AccessBlocked, gpu.AccessMiss})
	smTick(g)
	presentedAgain(t, port, 4, nil, nil)
	// shared -> private: the write refused under the shared organisation
	// is presented to the private path.
	c.setShared(false)
	smTick(g)
	presentedAgain(t, port, 4, []int{1}, []gpu.AccessResult{gpu.AccessBlocked})
}

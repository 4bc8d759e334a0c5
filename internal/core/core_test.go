package core

import (
	"testing"

	"delrep/internal/cache"
	"delrep/internal/config"
	"delrep/internal/noc"
)

// shortCfg returns a configuration with test-sized windows.
func shortCfg(scheme config.Scheme) config.Config {
	cfg := config.Default()
	cfg.Scheme = scheme
	cfg.WarmupCycles = 2000
	cfg.MeasureCycles = 5000
	return cfg
}

func runShort(t *testing.T, cfg config.Config, gpu, cpu string) Results {
	t.Helper()
	sys := NewSystem(cfg, gpu, cpu)
	return sys.RunWorkload()
}

func TestBaselineMakesProgress(t *testing.T) {
	r := runShort(t, shortCfg(config.SchemeBaseline), "HS", "vips")
	if r.GPUInsts == 0 {
		t.Fatal("no GPU instructions")
	}
	if r.CPUThroughput == 0 {
		t.Fatal("no CPU completions")
	}
	if r.CPULatAvg <= 0 {
		t.Fatal("no CPU latency measured")
	}
	if r.Breakdown.Total() == 0 {
		t.Fatal("no replies classified")
	}
	if r.Breakdown.RemoteHit != 0 || r.Breakdown.RemoteMiss != 0 {
		t.Fatal("baseline must not forward misses")
	}
}

func TestBaselineCloggingExists(t *testing.T) {
	// The paper's premise: GPU traffic clogs the memory nodes' reply
	// side (blocking rates of 72-79% in the paper's setup).
	r := runShort(t, shortCfg(config.SchemeBaseline), "HS", "vips")
	if r.MemBlockedRate < 0.15 {
		t.Fatalf("memory-node blocking rate %.2f: no clogging regime", r.MemBlockedRate)
	}
	if r.LLCHitRate < 0.7 {
		t.Fatalf("LLC hit rate %.2f too low: DRAM-bound, not reply-link-bound", r.LLCHitRate)
	}
}

func TestDelegatedRepliesMechanism(t *testing.T) {
	r := runShort(t, shortCfg(config.SchemeDelegatedReplies), "HS", "vips")
	if r.Delegations == 0 {
		t.Fatal("no delegations issued")
	}
	if r.Breakdown.RemoteHit == 0 {
		t.Fatal("no remote hits")
	}
	if r.Breakdown.RemoteMiss == 0 {
		t.Fatal("no remote misses (DNF path unexercised)")
	}
	// Short windows sit in the early transient where stale prewarm
	// pointers produce extra remote misses; steady state reaches ~50%.
	if r.Breakdown.RemoteHitFrac() < 0.2 {
		t.Fatalf("remote hit fraction %.2f too low (paper: 74.4%%)", r.Breakdown.RemoteHitFrac())
	}
}

func TestDelegatedImprovesHSBandwidth(t *testing.T) {
	// Longer windows than the other tests: the CPU-latency comparison
	// needs the clogging steady state.
	cfg := shortCfg(config.SchemeBaseline)
	cfg.WarmupCycles, cfg.MeasureCycles = 8000, 16000
	base := runShort(t, cfg, "HS", "vips")
	cfg.Scheme = config.SchemeDelegatedReplies
	dr := runShort(t, cfg, "HS", "vips")
	if dr.GPURecvRate <= base.GPURecvRate {
		t.Fatalf("DR recv rate %.3f not above baseline %.3f", dr.GPURecvRate, base.GPURecvRate)
	}
	if dr.GPUIPC <= base.GPUIPC {
		t.Fatalf("DR IPC %.2f not above baseline %.2f on HS", dr.GPUIPC, base.GPUIPC)
	}
	if dr.CPULatAvg >= base.CPULatAvg {
		t.Fatalf("DR CPU latency %.1f not below baseline %.1f", dr.CPULatAvg, base.CPULatAvg)
	}
}

func TestRPMechanism(t *testing.T) {
	r := runShort(t, shortCfg(config.SchemeRP), "NN", "blackscholes")
	if r.ProbesSent == 0 {
		t.Fatal("no probes sent")
	}
	if r.ProbeHits == 0 {
		t.Fatal("no probe hits")
	}
	if r.Breakdown.RemoteHit == 0 {
		t.Fatal("probe hits not reflected in breakdown")
	}
}

func TestDeterminism(t *testing.T) {
	a := runShort(t, shortCfg(config.SchemeDelegatedReplies), "2DCON", "canneal")
	b := runShort(t, shortCfg(config.SchemeDelegatedReplies), "2DCON", "canneal")
	if a.GPUInsts != b.GPUInsts || a.Delegations != b.Delegations ||
		a.ReqFlits != b.ReqFlits || a.CPUThroughput != b.CPUThroughput {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	cfg := shortCfg(config.SchemeBaseline)
	a := runShort(t, cfg, "HS", "vips")
	cfg.Seed = 99
	b := runShort(t, cfg, "HS", "vips")
	if a.GPUInsts == b.GPUInsts && a.ReqFlits == b.ReqFlits {
		t.Fatal("different seeds produced identical runs")
	}
}

// TestLivenessMatrix runs every scheme on every layout, topology, and
// L1 organisation and requires forward progress (deadlock freedom).
func TestLivenessMatrix(t *testing.T) {
	schemes := []config.Scheme{config.SchemeBaseline, config.SchemeRP, config.SchemeDelegatedReplies}
	t.Run("layouts", func(t *testing.T) {
		for _, l := range config.AllLayouts() {
			for _, s := range schemes {
				cfg := shortCfg(s)
				cfg.Layout = l
				cfg.NoC.ReqOrder, cfg.NoC.RepOrder = l.ReqOrder, l.RepOrder
				r := runShort(t, cfg, "SRAD", "ferret")
				if r.GPUInsts == 0 || r.CPUThroughput == 0 {
					t.Errorf("layout %s scheme %v: no progress", l.Name, s)
				}
			}
		}
	})
	t.Run("topologies", func(t *testing.T) {
		for _, topo := range []config.Topology{config.TopoMesh,
			config.TopoFlattenedButterfly, config.TopoDragonfly, config.TopoCrossbar} {
			for _, s := range schemes {
				cfg := shortCfg(s)
				cfg.NoC.Topology = topo
				r := runShort(t, cfg, "MM", "canneal")
				if r.GPUInsts == 0 {
					t.Errorf("topology %v scheme %v: no progress", topo, s)
				}
			}
		}
	})
	t.Run("orgs", func(t *testing.T) {
		for _, org := range []config.L1Org{config.L1DCL1, config.L1DynEB} {
			for _, sched := range []config.CTASched{config.CTARoundRobin, config.CTADistributed} {
				cfg := shortCfg(config.SchemeDelegatedReplies)
				cfg.GPU.Org = org
				cfg.GPU.CTASched = sched
				r := runShort(t, cfg, "SC", "bodytrack")
				if r.GPUInsts == 0 {
					t.Errorf("org %v sched %v: no progress", org, sched)
				}
			}
		}
	})
	t.Run("adaptive-routing", func(t *testing.T) {
		for _, alg := range []config.RoutingAlg{config.RoutingAdaptive} {
			cfg := shortCfg(config.SchemeBaseline)
			cfg.NoC.Routing = alg
			r := runShort(t, cfg, "LPS", "x264")
			if r.GPUInsts == 0 {
				t.Errorf("routing %v: no progress", alg)
			}
		}
	})
	t.Run("shared-phys", func(t *testing.T) {
		for _, vcs := range [][2]int{{1, 3}, {2, 2}, {1, 1}} {
			cfg := shortCfg(config.SchemeDelegatedReplies)
			cfg.NoC.SharedPhys = true
			cfg.NoC.ChannelBytes *= 2
			cfg.NoC.ReqVCs, cfg.NoC.RepVCs = vcs[0], vcs[1]
			r := runShort(t, cfg, "BT", "dedup")
			if r.GPUInsts == 0 {
				t.Errorf("shared phys %v: no progress", vcs)
			}
		}
	})
	t.Run("scaled-mesh", func(t *testing.T) {
		for _, n := range []int{10, 12} {
			cfg := shortCfg(config.SchemeDelegatedReplies)
			cfg.Layout = config.ScaledBaseline(n, n)
			r := runShort(t, cfg, "HS", "vips")
			if r.GPUInsts == 0 {
				t.Errorf("%dx%d: no progress", n, n)
			}
		}
	})
}

// TestStressTinyResources shrinks MSHRs, FRQs, and buffers to force
// every back-pressure path; the system must keep making progress
// (the Section IV deadlock-avoidance rule).
func TestStressTinyResources(t *testing.T) {
	for _, scheme := range []config.Scheme{config.SchemeBaseline, config.SchemeRP, config.SchemeDelegatedReplies} {
		cfg := shortCfg(scheme)
		cfg.GPU.L1MSHRs = 4
		cfg.GPU.FRQEntries = 2
		cfg.GPU.MaxOutWrites = 2
		cfg.NoC.InjectionBuf = 2
		cfg.NoC.FlitsPerVC = 2
		cfg.LLC.MSHRs = 8
		cfg.DRAM.QueueCap = 8
		sys := NewSystem(cfg, "HS", "vips")
		sys.Run(3000)
		first := int64(0)
		for _, g := range sys.GPUs {
			first += g.SM.Insts
		}
		sys.Run(3000)
		second := int64(0)
		for _, g := range sys.GPUs {
			second += g.SM.Insts
		}
		if second <= first {
			t.Errorf("scheme %v: no progress under tiny resources (deadlock?)", scheme)
		}
	}
}

func TestWriteHeavyWorkload(t *testing.T) {
	r := runShort(t, shortCfg(config.SchemeDelegatedReplies), "BP", "blackscholes")
	if r.GPUInsts == 0 {
		t.Fatal("no progress on write-heavy workload")
	}
	// BP should see few delegations (paper: modest benefit, write-heavy).
	hs := runShort(t, shortCfg(config.SchemeDelegatedReplies), "HS", "vips")
	if r.Delegations >= hs.Delegations {
		t.Fatalf("BP delegations (%d) should be below HS (%d)", r.Delegations, hs.Delegations)
	}
}

func TestKernelFlush(t *testing.T) {
	cfg := shortCfg(config.SchemeDelegatedReplies)
	cfg.GPU.KernelCycles = 1500
	r := runShort(t, cfg, "HS", "vips")
	if r.GPUInsts == 0 {
		t.Fatal("no progress with kernel flushes")
	}
}

func TestNNLowMissRate(t *testing.T) {
	// Paper: NN's L1 miss rate is 4.3%. The hot set needs a few
	// thousand cycles to become L1-resident.
	cfg := shortCfg(config.SchemeBaseline)
	cfg.WarmupCycles, cfg.MeasureCycles = 8000, 16000
	r := runShort(t, cfg, "NN", "blackscholes")
	if r.L1MissRate > 0.12 {
		t.Fatalf("NN miss rate %.1f%%, want < 12%% (paper 4.3%%)", 100*r.L1MissRate)
	}
	if r.InterCoreLocal < 0.4 {
		t.Fatalf("NN locality %.2f, want high (paper > 0.6)", r.InterCoreLocal)
	}
}

func TestReplyConservation(t *testing.T) {
	// Every classified reply corresponds to a primary L1 miss; the gap
	// is bounded by in-flight state (MSHRs, buffers).
	sys := NewSystem(shortCfg(config.SchemeDelegatedReplies), "2DCON", "dedup")
	sys.RunWorkload()
	var allocs, replies int64
	for _, g := range sys.GPUs {
		allocs += g.mshr.Allocs
		replies += g.Stats.RepliesLLCHit + g.Stats.RepliesDRAM +
			g.Stats.RepliesRemoteHit + g.Stats.RepliesRemoteMiss
	}
	inflight := int64(len(sys.GPUs) * sys.Cfg.GPU.L1MSHRs)
	if replies > allocs+inflight || replies < allocs-inflight {
		t.Fatalf("replies %d vs allocs %d (slack %d): requests lost or duplicated",
			replies, allocs, inflight)
	}
}

func TestPointerInvalidationOnWrite(t *testing.T) {
	sys := NewSystem(shortCfg(config.SchemeDelegatedReplies), "HS", "vips")
	m := sys.Mems[0]
	line := cache.Addr(1 << 30)
	for sys.memNodeFor(line) != m.Node {
		line++
	}
	m.llc.Insert(line, auxOf(sys.GPUs[3].Node), false)
	msg := &Msg{Type: MsgGPUWrite, Line: line, Requester: sys.GPUs[0].Node}
	m.beginQuota()
	if !m.HandlePacket(&noc.Packet{Payload: msg, Class: noc.ClassRequest}) {
		t.Fatal("write refused by idle memory node")
	}
	if _, aux := m.llc.Peek(line); aux != 0 {
		t.Fatalf("core pointer %d not invalidated by write", aux)
	}
}

func TestDelegatablePredicate(t *testing.T) {
	sys := NewSystem(shortCfg(config.SchemeDelegatedReplies), "HS", "vips")
	m := sys.Mems[0]
	ok := &Msg{Type: MsgReply, Kind: ReplyLLCHit, Sharer: 10, Requester: 20}
	if !m.delegatable(ok) {
		t.Fatal("valid delegation rejected")
	}
	cases := []*Msg{
		{Type: MsgReply, Kind: ReplyLLCHit, Sharer: -1, Requester: 20},            // no pointer
		{Type: MsgReply, Kind: ReplyLLCHit, Sharer: 20, Requester: 20},            // self
		{Type: MsgReply, Kind: ReplyDRAM, Sharer: 10, Requester: 20},              // not an LLC hit
		{Type: MsgReply, Kind: ReplyLLCHit, Sharer: 10, Requester: 20, DNF: true}, // do-not-forward
		{Type: MsgWriteAck, Kind: ReplyLLCHit, Sharer: 10, Requester: 20},         // not a data reply
	}
	for i, c := range cases {
		if m.delegatable(c) {
			t.Errorf("case %d wrongly delegatable: %+v", i, c)
		}
	}
}

func TestPointerTracksLastAccessor(t *testing.T) {
	sys := NewSystem(shortCfg(config.SchemeDelegatedReplies), "HS", "vips")
	m := sys.Mems[0]
	line := cache.Addr(1 << 30)
	for sys.memNodeFor(line) != m.Node {
		line++
	}
	m.llc.Insert(line, 0, false)
	first := sys.GPUs[1].Node
	second := sys.GPUs[2].Node
	m.beginQuota()
	m.HandlePacket(&noc.Packet{Payload: &Msg{Type: MsgGPURead, Line: line, Requester: first}})
	if _, aux := m.llc.Peek(line); pointerOf(aux) != first {
		t.Fatalf("pointer %d after first read, want %d", pointerOf(aux), first)
	}
	m.beginQuota()
	m.HandlePacket(&noc.Packet{Payload: &Msg{Type: MsgGPURead, Line: line, Requester: second}})
	if _, aux := m.llc.Peek(line); pointerOf(aux) != second {
		t.Fatalf("pointer %d after second read, want %d", pointerOf(aux), second)
	}
	// The reply for the second read must name the first as sharer.
	q := sys.repNI(m.Node).PeekQueue(noc.ClassReply)
	last := q[len(q)-1].Payload.(*Msg)
	if last.Sharer != first {
		t.Fatalf("reply sharer %d, want %d", last.Sharer, first)
	}
}

func TestCPUReadsPrioritized(t *testing.T) {
	// CPU replies must be CPU-priority packets with 5 flits (64 B).
	sys := NewSystem(shortCfg(config.SchemeBaseline), "HS", "vips")
	m := sys.Mems[0]
	line := cache.Addr(uint64(3 << 30))
	for sys.memNodeFor(line) != m.Node {
		line++
	}
	m.llc.Insert(line, 0, false)
	cpuNode := sys.CPUs[0].Node
	m.beginQuota()
	m.HandlePacket(&noc.Packet{Payload: &Msg{Type: MsgCPURead, Line: line, Requester: cpuNode}})
	q := sys.repNI(m.Node).PeekQueue(noc.ClassReply)
	p := q[len(q)-1]
	if p.Prio != noc.PrioCPU {
		t.Fatal("CPU reply not CPU priority")
	}
	if p.SizeFlits != sys.cpuReplyFlits || p.SizeFlits != 5 {
		t.Fatalf("CPU reply %d flits, want 5", p.SizeFlits)
	}
	if _, aux := m.llc.Peek(line); aux != 0 {
		t.Fatal("CPU read must not set a core pointer")
	}
}

func TestMemNodeBlocksWhenBufferFull(t *testing.T) {
	sys := NewSystem(shortCfg(config.SchemeBaseline), "HS", "vips")
	m := sys.Mems[0]
	// Fill the reply injection buffer.
	ni := sys.repNI(m.Node)
	for ni.CanInject(noc.ClassReply) {
		ni.Inject(sys.newPacket(m.Node, sys.GPUs[0].Node, noc.ClassReply, noc.PrioGPU, 9,
			&Msg{Type: MsgReply, Line: 1, Requester: sys.GPUs[0].Node}))
	}
	line := cache.Addr(1 << 30)
	for sys.memNodeFor(line) != m.Node {
		line++
	}
	m.llc.Insert(line, 0, false)
	m.beginQuota()
	accepted := m.HandlePacket(&noc.Packet{Payload: &Msg{Type: MsgGPURead, Line: line, Requester: sys.GPUs[0].Node}})
	if accepted {
		t.Fatal("memory node accepted an LLC hit with a full reply buffer")
	}
	if m.Stats.RefusedCycles != 1 {
		t.Fatalf("refused cycles = %d", m.Stats.RefusedCycles)
	}
}

func TestFRQBoundedAndRefuses(t *testing.T) {
	sys := NewSystem(shortCfg(config.SchemeDelegatedReplies), "HS", "vips")
	g := sys.GPUs[0]
	for i := 0; i < sys.Cfg.GPU.FRQEntries; i++ {
		p := sys.newPacket(sys.Mems[0].Node, g.Node, noc.ClassRequest, noc.PrioRemote, 1,
			&Msg{Type: MsgDelegated, Line: cache.Addr(i), Requester: sys.GPUs[1].Node})
		if !g.HandlePacket(p) {
			t.Fatalf("FRQ refused entry %d below capacity", i)
		}
	}
	p := sys.newPacket(sys.Mems[0].Node, g.Node, noc.ClassRequest, noc.PrioRemote, 1,
		&Msg{Type: MsgDelegated, Line: 99, Requester: sys.GPUs[1].Node})
	if g.HandlePacket(p) {
		t.Fatal("FRQ accepted past capacity")
	}
}

func TestFRQRemoteMissSendsDNF(t *testing.T) {
	sys := NewSystem(shortCfg(config.SchemeDelegatedReplies), "HS", "vips")
	g := sys.GPUs[0]
	requester := sys.GPUs[5].Node
	line := cache.Addr(12345)
	p := sys.newPacket(sys.Mems[0].Node, g.Node, noc.ClassRequest, noc.PrioRemote, 1,
		&Msg{Type: MsgDelegated, Line: line, Requester: requester})
	g.HandlePacket(p)
	g.BeginCycle()
	g.serveFRQ()
	if len(g.outReq) == 0 {
		t.Fatal("remote miss did not re-send to the LLC")
	}
	m := g.outReq[len(g.outReq)-1].Payload.(*Msg)
	if m.Type != MsgGPURead || !m.DNF || m.Requester != requester {
		t.Fatalf("DNF re-request wrong: %+v", m)
	}
	if g.Stats.FRQRemoteMisses != 1 {
		t.Fatal("remote miss not counted")
	}
}

func TestFRQRemoteHitRepliesDirectly(t *testing.T) {
	sys := NewSystem(shortCfg(config.SchemeDelegatedReplies), "HS", "vips")
	g := sys.GPUs[0]
	line := cache.Addr(777)
	g.l1.Insert(line, 0, false)
	requester := sys.GPUs[7].Node
	p := sys.newPacket(sys.Mems[0].Node, g.Node, noc.ClassRequest, noc.PrioRemote, 1,
		&Msg{Type: MsgDelegated, Line: line, Requester: requester})
	g.HandlePacket(p)
	g.BeginCycle()
	g.serveFRQ()
	if g.Stats.FRQRemoteHits != 1 {
		t.Fatal("remote hit not served")
	}
	rep := g.outRep[len(g.outRep)-1]
	m := rep.Payload.(*Msg)
	if rep.Dst != requester || m.Kind != ReplyRemoteHit || rep.SizeFlits != sys.gpuReplyFlits {
		t.Fatalf("bad remote-hit reply: dst=%d kind=%v flits=%d", rep.Dst, m.Kind, rep.SizeFlits)
	}
}

func TestPrewarmGivesHighLLCHitRate(t *testing.T) {
	sys := NewSystem(shortCfg(config.SchemeBaseline), "HS", "vips")
	occ := 0
	capacity := 0
	for _, m := range sys.Mems {
		occ += m.llc.Occupancy()
		capacity += m.llc.Config().Sets() * sys.Cfg.LLC.Assoc
	}
	if occ < capacity/3 {
		t.Fatalf("prewarm filled only %d/%d LLC lines", occ, capacity)
	}
}

func TestValidateRejectsViaNewSystemPanic(t *testing.T) {
	cfg := shortCfg(config.SchemeBaseline)
	cfg.NoC.ChannelBytes = 0
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config did not panic")
		}
	}()
	NewSystem(cfg, "HS", "vips")
}

func TestMeshLinkUtil(t *testing.T) {
	sys := NewSystem(shortCfg(config.SchemeBaseline), "HS", "vips")
	sys.RunWorkload()
	grid := sys.MeshLinkUtil(true, noc.PortE)
	if len(grid) != 8 || len(grid[0]) != 8 {
		t.Fatalf("grid shape %dx%d", len(grid), len(grid[0]))
	}
	// The memory column's east reply links must be among the busiest.
	memEast := grid[3][2]
	if memEast <= 0 {
		t.Fatal("memory-node east reply link shows no traffic")
	}
	for y := 0; y < 8; y++ {
		if grid[y][7] > memEast*2 {
			t.Fatalf("edge link busier than the memory column: %v vs %v", grid[y][7], memEast)
		}
	}
	// Non-mesh topologies return nil.
	cfg := shortCfg(config.SchemeBaseline)
	cfg.NoC.Topology = config.TopoCrossbar
	xbar := NewSystem(cfg, "HS", "vips")
	if xbar.MeshLinkUtil(true, noc.PortE) != nil {
		t.Fatal("crossbar returned a mesh grid")
	}
}

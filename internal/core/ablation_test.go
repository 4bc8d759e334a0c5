package core

import (
	"testing"

	"delrep/internal/cache"
	"delrep/internal/config"
	"delrep/internal/noc"
)

func TestAlwaysDelegateDelegatesMore(t *testing.T) {
	// Under heavy clogging the blocked-only trigger fires nearly every
	// cycle, so the policies converge; the ablation is visible when the
	// injection buffer is generous and blocking is rare.
	cfg := shortCfg(config.SchemeDelegatedReplies)
	cfg.NoC.InjectionBuf = 64
	paper := runShort(t, cfg, "SC", "bodytrack")
	cfg.DelRep.AlwaysDelegate = true
	always := runShort(t, cfg, "SC", "bodytrack")
	if always.Delegations <= paper.Delegations {
		t.Fatalf("always-delegate issued %d delegations vs blocked-only %d",
			always.Delegations, paper.Delegations)
	}
}

func TestDelegationBandwidthKnob(t *testing.T) {
	cfg := shortCfg(config.SchemeDelegatedReplies)
	cfg.DelRep.MaxDelegationsPerCycle = 4
	r := runShort(t, cfg, "HS", "vips")
	if r.Delegations == 0 || r.GPUInsts == 0 {
		t.Fatal("no progress with wider delegation bandwidth")
	}
}

func TestFRQMergeCoalesces(t *testing.T) {
	cfg := shortCfg(config.SchemeDelegatedReplies)
	cfg.DelRep.FRQMerge = true
	sys := NewSystem(cfg, "HS", "vips")
	g := sys.GPUs[0]
	line := cache.Addr(555)
	g.l1.Insert(line, 0, false)
	reqA := sys.GPUs[5].Node
	reqB := sys.GPUs[6].Node
	mem := sys.Mems[0].Node
	// Two delegated replies for the same line: the second must merge
	// rather than occupy an FRQ entry.
	pa := sys.newPacketOn(&sys.shards[0].al, mem, g.Node, noc.ClassRequest, noc.PrioRemote, 1,
		&Msg{Type: MsgDelegated, Line: line, Requester: reqA})
	pb := sys.newPacketOn(&sys.shards[0].al, mem, g.Node, noc.ClassRequest, noc.PrioRemote, 1,
		&Msg{Type: MsgDelegated, Line: line, Requester: reqB})
	if !g.HandlePacket(pa) || !g.HandlePacket(pb) {
		t.Fatal("delegated replies refused")
	}
	if len(g.frq) != 1 {
		t.Fatalf("FRQ holds %d entries, want 1 (merged)", len(g.frq))
	}
	if g.Stats.FRQSameLine != 1 {
		t.Fatal("same-line event not counted")
	}
	g.BeginCycle()
	g.serveFRQ()
	if g.Stats.FRQRemoteHits != 2 {
		t.Fatalf("served %d remote hits, want 2 (merged requester included)",
			g.Stats.FRQRemoteHits)
	}
	dsts := map[int]bool{}
	for _, p := range g.outRep {
		dsts[p.Dst] = true
	}
	if !dsts[reqA] || !dsts[reqB] {
		t.Fatalf("replies missing a merged requester: %v", dsts)
	}
}

func TestFRQMergeOffKeepsSeparateEntries(t *testing.T) {
	cfg := shortCfg(config.SchemeDelegatedReplies)
	sys := NewSystem(cfg, "HS", "vips")
	g := sys.GPUs[0]
	line := cache.Addr(556)
	mem := sys.Mems[0].Node
	for i, req := range []int{sys.GPUs[5].Node, sys.GPUs[6].Node} {
		p := sys.newPacketOn(&sys.shards[0].al, mem, g.Node, noc.ClassRequest, noc.PrioRemote, 1,
			&Msg{Type: MsgDelegated, Line: line, Requester: req})
		if !g.HandlePacket(p) {
			t.Fatalf("entry %d refused", i)
		}
	}
	if len(g.frq) != 2 {
		t.Fatalf("FRQ holds %d entries, want 2 (merging off)", len(g.frq))
	}
}

func TestFRQMergeEndToEnd(t *testing.T) {
	cfg := shortCfg(config.SchemeDelegatedReplies)
	cfg.DelRep.FRQMerge = true
	r := runShort(t, cfg, "HS", "vips")
	if r.GPUInsts == 0 || r.Delegations == 0 {
		t.Fatal("no progress with FRQ merging enabled")
	}
}

package core

import (
	"fmt"
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

// TestFRQSameLineKeepsSeparateEntries: two delegated requests for one
// line take two FRQ entries, and the second is counted as a same-line
// event (the counter TestFRQKnobsDigestNeutral reads as zero).
func TestFRQSameLineKeepsSeparateEntries(t *testing.T) {
	cfg := shortCfg(config.SchemeDelegatedReplies)
	sys := NewSystem(cfg, "HS", "vips")
	g := sys.GPUs[0]
	line := cache.Addr(556)
	mem := sys.Mems[0].Node
	for i, req := range []int{sys.GPUs[5].Node, sys.GPUs[6].Node} {
		p := sys.newPacket(mem, g.Node, noc.ClassRequest, noc.PrioRemote, 1,
			&Msg{Type: MsgDelegated, Line: line, Requester: req})
		if !g.HandlePacket(p) {
			t.Fatalf("entry %d refused", i)
		}
	}
	if len(g.frq) != 2 {
		t.Fatalf("FRQ holds %d entries, want 2", len(g.frq))
	}
	if g.Stats.FRQSameLine != 1 {
		t.Fatalf("same-line events counted %d, want 1", g.Stats.FRQSameLine)
	}
}

// TestFRQKnobsDigestNeutral pins what the FRQ's size does in this
// model: nothing. HandlePacket queues a delegated request during the
// request network's commit and serveFRQ drains it in the same cycle's
// node phase, so the queue never holds a second entry for its size to
// bound. Every size must give the default's digest, on every
// topology; every run must delegate, so the equality is not that of
// two FRQs that were never used; and no delegated request may find
// another for its line still queued (the paper measures 4.8% of
// entries sharing a line).
// Under the race detector, which has no goroutines to watch in a
// simulation, it runs on the mesh only.
func TestFRQKnobsDigestNeutral(t *testing.T) {
	def := config.Default()
	topos := []config.Topology{
		config.TopoMesh, config.TopoFlattenedButterfly, config.TopoDragonfly, config.TopoCrossbar,
	}
	if raceDetector {
		topos = topos[:1]
	}
	for _, topo := range topos {
		for _, w := range []struct{ gpu, cpu string }{{"HS", "vips"}, {"2DCON", "dedup"}} {
			t.Run(fmt.Sprintf("%v/%s+%s", topo, w.gpu, w.cpu), func(t *testing.T) {
				t.Parallel()
				run := func(entries int) uint64 {
					cfg := def
					cfg.Scheme = config.SchemeDelegatedReplies
					cfg.NoC.Topology = topo
					cfg.WarmupCycles, cfg.MeasureCycles = 2000, 6000
					cfg.GPU.FRQEntries = entries
					a := RunAudit(cfg, w.gpu, w.cpu)
					if a.Results.Delegations == 0 {
						t.Fatalf("FRQEntries %d: no delegations", entries)
					}
					if f := a.Results.FRQSameLineFrac; f != 0 {
						t.Errorf("FRQEntries %d: same-line fraction %v, want 0 (the FRQ held an entry across a cycle)", entries, f)
					}
					return a.Digest
				}
				want := run(def.GPU.FRQEntries)
				for _, entries := range []int{1, 32} {
					if got := run(entries); got != want {
						t.Errorf("FRQEntries %d: digest %016x, default %016x", entries, got, want)
					}
				}
			})
		}
	}
}

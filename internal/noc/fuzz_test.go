package noc

import (
	"math/rand"
	"testing"

	"delrep/internal/config"
)

// FuzzRouterState runs generated network configurations — not just the
// Table I ones — under random traffic with every self-check on: the
// router state words are recounted from the rings, owner and credits
// every tick (DebugChecks), the credit invariant is re-derived every
// cycle, sinks refuse at random to back traffic up into the routers,
// packets carry random ReadyAt delays and are withdrawn from the queues
// at random (the NI's timed and queue-removal wakes, checked by ticking
// sleeping NIs anyway), and after the sources stop every flit still
// injected must be ejected and the network Quiet. The seeds below and under testdata/fuzz run as
// plain tests; `go test -fuzz FuzzRouterState` explores from them.
func FuzzRouterState(f *testing.F) {
	// topology, VCs (per class, or request VCs when shared), shared
	// physical network, reply VCs, FlitsPerVC, link delay, router delay,
	// tiles (ignored), traffic seed.
	f.Add(uint8(0), uint8(2), false, uint8(0), uint8(4), uint8(1), uint8(4), uint8(1), int64(1))
	f.Add(uint8(0), uint8(1), false, uint8(0), uint8(1), uint8(1), uint8(0), uint8(3), int64(2))
	f.Add(uint8(0), uint8(1), true, uint8(3), uint8(2), uint8(2), uint8(1), uint8(1), int64(3))
	f.Add(uint8(0), uint8(4), true, uint8(4), uint8(8), uint8(1), uint8(2), uint8(3), int64(4))
	f.Add(uint8(1), uint8(3), false, uint8(0), uint8(3), uint8(3), uint8(3), uint8(3), int64(5))
	f.Add(uint8(2), uint8(2), false, uint8(0), uint8(5), uint8(1), uint8(4), uint8(1), int64(6))
	f.Add(uint8(2), uint8(2), true, uint8(2), uint8(2), uint8(2), uint8(0), uint8(3), int64(7))
	f.Add(uint8(3), uint8(1), false, uint8(0), uint8(1), uint8(1), uint8(1), uint8(1), int64(8))
	f.Add(uint8(3), uint8(4), true, uint8(4), uint8(6), uint8(3), uint8(2), uint8(3), int64(9))
	// The blank uint8 is the old tile count, kept so the committed corpus decodes; a network is one tile.
	f.Fuzz(func(t *testing.T, topoSel, vcs uint8, shared bool, repVCs, depth, link, router, _ uint8, seed int64) {
		const nodes, ejCap, maxFlits = 16, 8, 5
		var topo Topology
		switch topoSel % 4 {
		case 0:
			topo = NewMesh(4, 4, MeshPolicy{Alg: config.RoutingCDR, ReqOrder: config.OrderXY, RepOrder: config.OrderYX})
		case 1:
			topo = NewFlattenedButterfly(4, 4, config.OrderXY, config.OrderYX)
		case 2:
			topo = NewDragonfly(16, 4)
		default:
			topo = NewCrossbar(nodes)
		}
		cfg := defaultNoC()
		cfg.VCsPerClass = 1 + int(vcs%4)
		if _, dragonfly := topo.(*Dragonfly); dragonfly && cfg.VCsPerClass < 2 {
			cfg.VCsPerClass = 2 // minimal dragonfly routing needs a VC per phase
		}
		if shared {
			cfg.SharedPhys, cfg.ReqVCs, cfg.RepVCs = true, cfg.VCsPerClass, 1+int(repVCs%4)
			if _, dragonfly := topo.(*Dragonfly); dragonfly && cfg.RepVCs < 2 {
				cfg.RepVCs = 2
			}
		}
		cfg.FlitsPerVC = 1 + int(depth%8)
		cfg.LinkDelay = 1 + int(link%3)
		cfg.RouterDelay = int(router % 5)

		net := NewNetwork("fuzz", topo, cfg, nodes, Params{InjCapCore: 4, InjCapMem: 4, EjCap: ejCap, AsmCap: 2})
		net.DebugChecks = true
		rng := rand.New(rand.NewSource(seed))
		refuse := true
		delivered := 0
		for n := 0; n < nodes; n++ {
			net.NI(n).Handler = func(*Packet) bool {
				if refuse && rng.Intn(3) == 0 {
					return false
				}
				delivered++
				return true
			}
		}
		injected, flits := 0, int64(0)
		step := func() {
			net.Tick()
			if err := net.CheckCreditInvariant(); err != nil {
				t.Fatalf("cycle %d: %v", net.Now(), err)
			}
		}
		for cyc := 0; cyc < 300; cyc++ {
			for n := 0; n < nodes; n++ {
				if rng.Intn(3) != 0 {
					continue
				}
				// A dedicated network carries one class (the system builds one
				// per class: XY requests and YX replies sharing VCs can
				// deadlock); a shared one carries both on disjoint VC ranges.
				cls := Class(seed & 1)
				if shared {
					cls = Class(rng.Intn(2))
				}
				p := &Packet{ID: uint64(injected + 1), Src: n, Dst: rng.Intn(nodes), Class: cls,
					Prio: Priority(rng.Intn(3)), SizeFlits: 1 + rng.Intn(maxFlits)}
				if rng.Intn(4) == 0 {
					p.ReadyAt = net.Now() + 1 + int64(rng.Intn(30))
				}
				if net.NI(n).Inject(p) {
					injected++
					flits += int64(p.SizeFlits)
				}
				if q := net.NI(n).PeekQueue(cls); len(q) > 0 && rng.Intn(8) == 0 {
					gone := net.NI(n).RemoveQueued(cls, rng.Intn(len(q)))
					injected--
					flits -= int64(gone.SizeFlits)
				}
			}
			step()
		}
		refuse = false
		for cyc := 0; cyc < 20000 && delivered < injected; cyc++ {
			step()
		}
		step() // the cycle after the last delivery returns its ejection credits
		ejected := net.EjectedFlits(ClassRequest) + net.EjectedFlits(ClassReply)
		if delivered != injected || ejected != flits || net.InjectedFlits(ClassRequest)+net.InjectedFlits(ClassReply) != flits {
			t.Fatalf("injected %d packets (%d flits), delivered %d (%d flits ejected)", injected, flits, delivered, ejected)
		}
		if !net.Quiet() {
			t.Fatal("network not quiet after drain")
		}
	})
}

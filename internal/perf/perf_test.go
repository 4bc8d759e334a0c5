package perf

import (
	"testing"

	"delrep/internal/config"
	"delrep/internal/core"
	"delrep/internal/noc"
)

// meshHarness drives an 8x8 mesh at saturation with a fixed pool of
// packets: delivered packets are recycled into the injection side, so
// the steady state exercises the full router pipeline without any
// allocation attributable to the harness itself.
type meshHarness struct {
	net  *noc.Network
	free []*noc.Packet
}

const (
	meshNodes   = 64
	poolPackets = 256
	pktFlits    = 5
)

func newMeshHarness() *meshHarness {
	topo := noc.NewMesh(8, 8, noc.MeshPolicy{
		Alg: config.RoutingCDR, ReqOrder: config.OrderXY, RepOrder: config.OrderXY,
	})
	cfg := config.Default().NoC
	net := noc.NewNetwork("perf", topo, cfg, meshNodes, noc.Params{
		InjCapCore: 8, InjCapMem: 8, EjCap: 24, AsmCap: 4,
	})
	h := &meshHarness{net: net, free: make([]*noc.Packet, 0, poolPackets)}
	for n := 0; n < meshNodes; n++ {
		net.NI(n).Handler = func(p *noc.Packet) bool {
			h.free = append(h.free, p)
			return true
		}
	}
	for i := 0; i < poolPackets; i++ {
		h.free = append(h.free, &noc.Packet{
			ID: uint64(i + 1), Class: noc.ClassRequest, Prio: noc.PrioGPU, SizeFlits: pktFlits,
		})
	}
	return h
}

// cycle tops up every injection queue from the recycle pool and ticks
// the network once.
func (h *meshHarness) cycle() {
	for n := 0; n < meshNodes && len(h.free) > 0; n++ {
		ni := h.net.NI(n)
		if !ni.CanInject(noc.ClassRequest) {
			continue
		}
		p := h.free[len(h.free)-1]
		h.free = h.free[:len(h.free)-1]
		p.Src, p.Dst = n, (n+17)%meshNodes
		p.Injected, p.Ejected, p.ReadyAt, p.Hops = 0, 0, 0, 0
		ni.Inject(p)
	}
	h.net.Tick()
}

// warm runs the harness long enough for every queue, ring slot, and
// scratch buffer to reach its steady-state capacity.
func (h *meshHarness) warm() {
	for i := 0; i < 2000; i++ {
		h.cycle()
	}
}

// BenchmarkRouterTick measures one network cycle of an 8x8 mesh at
// saturation: every router has buffered flits, so the cost is
// dominated by the router pipeline (route, VC alloc, switch alloc,
// traversal).
func BenchmarkRouterTick(b *testing.B) {
	h := newMeshHarness()
	h.warm()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.cycle()
	}
}

// BenchmarkNetworkTickIdle measures one network cycle of a quiescent
// 8x8 mesh: no buffered flits, no injection or ejection work. This is
// the active-set scheduler's skip path; before activity gating it cost
// a full scan of 64 routers.
func BenchmarkNetworkTickIdle(b *testing.B) {
	topo := noc.NewMesh(8, 8, noc.MeshPolicy{
		Alg: config.RoutingCDR, ReqOrder: config.OrderXY, RepOrder: config.OrderXY,
	})
	net := noc.NewNetwork("perf", topo, config.Default().NoC, meshNodes, noc.Params{
		InjCapCore: 8, InjCapMem: 8, EjCap: 24, AsmCap: 4,
	})
	for n := 0; n < meshNodes; n++ {
		net.NI(n).Handler = func(p *noc.Packet) bool { return true }
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Tick()
	}
}

// benchSystemCycle measures one full heterogeneous-system cycle
// (memory nodes, both networks, clusters, GPU and CPU cores) after the
// given number of warm-up cycles.
func benchSystemCycle(b *testing.B, cfg config.Config, gpu, cpu string, warm int) {
	sys := core.NewSystem(cfg, gpu, cpu)
	for i := 0; i < warm; i++ {
		sys.Tick()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Tick()
	}
}

// BenchmarkSystemCycle measures the system cycle under the default
// Delegated Replies configuration.
func BenchmarkSystemCycle(b *testing.B) {
	cfg := config.Default()
	cfg.Scheme = config.SchemeDelegatedReplies
	benchSystemCycle(b, cfg, "NN", "vips", 1000)
}

// BenchmarkSystemCycleClogged measures the system cycle in the regime
// the paper studies: the baseline scheme under HS+vips on the mesh,
// 5 000 cycles in, with memory nodes blocked, reply buffers full and
// most SMs refused. BenchmarkSystemCycle (NN, delegated, 1 000 cycles)
// never gets there, which is how a per-cycle retry storm of refused L1
// accesses once went unseen.
func BenchmarkSystemCycleClogged(b *testing.B) {
	cfg := config.Default()
	cfg.Scheme = config.SchemeBaseline
	cfg.NoC.Topology = config.TopoMesh
	benchSystemCycle(b, cfg, "HS", "vips", 5000)
}

// TestNoCTickZeroAllocs is the allocation-regression gate: in steady
// state, a network cycle of the saturated mesh must not allocate. Ring
// buffers, persistent scratch arrays, and preallocated queues make the
// hot path allocation-free; any append-churn regression trips this.
func TestNoCTickZeroAllocs(t *testing.T) {
	h := newMeshHarness()
	h.warm()
	allocs := testing.AllocsPerRun(500, h.cycle)
	if allocs != 0 {
		t.Fatalf("NoC tick allocates in steady state: %.2f allocs/cycle, want 0", allocs)
	}
}

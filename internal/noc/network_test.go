package noc

import (
	"math/rand"
	"testing"

	"delrep/internal/config"
)

// buildNet constructs a network with sink handlers that count packets.
func buildNet(t *testing.T, topo Topology, nocCfg config.NoC, nodes int) (*Network, []int) {
	t.Helper()
	net := NewNetwork("t", topo, nocCfg, nodes, Params{
		InjCapCore: 8, InjCapMem: 8, EjCap: 24, AsmCap: 4,
	})
	received := make([]int, nodes)
	for n := 0; n < nodes; n++ {
		n := n
		net.NI(n).Handler = func(p *Packet) bool {
			received[n]++
			return true
		}
	}
	return net, received
}

func defaultNoC() config.NoC {
	c := config.Default().NoC
	return c
}

// runTraffic injects packets and runs until delivery or a cycle budget.
func runTraffic(t *testing.T, net *Network, pkts []*Packet, budget int) int {
	t.Helper()
	i := 0
	delivered := func() int {
		n := 0
		for _, p := range pkts {
			if p.Ejected > 0 {
				n++
			}
		}
		return n
	}
	for cyc := 0; cyc < budget; cyc++ {
		for i < len(pkts) {
			if !net.NI(pkts[i].Src).Inject(pkts[i]) {
				break
			}
			i++
		}
		net.Tick()
		if i == len(pkts) && delivered() == len(pkts) {
			break
		}
	}
	return delivered()
}

func meshTopo() Topology {
	return NewMesh(8, 8, MeshPolicy{
		Alg: config.RoutingCDR, ReqOrder: config.OrderYX, RepOrder: config.OrderXY,
	})
}

func TestSinglePacketDelivery(t *testing.T) {
	net, recv := buildNet(t, meshTopo(), defaultNoC(), 64)
	p := &Packet{ID: 1, Src: 0, Dst: 63, Class: ClassRequest, SizeFlits: 1}
	if got := runTraffic(t, net, []*Packet{p}, 200); got != 1 {
		t.Fatal("packet not delivered")
	}
	if recv[63] != 1 {
		t.Fatalf("received at 63: %d", recv[63])
	}
	if p.Hops < 14 { // 7+7 hops plus ejection
		t.Fatalf("hops = %d, want >= 14", p.Hops)
	}
	if p.Ejected <= p.Injected {
		t.Fatal("timestamps not ordered")
	}
}

func TestMultiFlitPacketDelivery(t *testing.T) {
	net, _ := buildNet(t, meshTopo(), defaultNoC(), 64)
	p := &Packet{ID: 1, Src: 8, Dst: 15, Class: ClassReply, SizeFlits: 9}
	if got := runTraffic(t, net, []*Packet{p}, 500); got != 1 {
		t.Fatal("9-flit packet not delivered")
	}
}

// TestAllTopologiesDeliver floods each topology with random traffic and
// verifies full delivery (no loss, no deadlock) plus credit conservation.
func TestAllTopologiesDeliver(t *testing.T) {
	for name, topo := range allTopologies() {
		nodes := 64
		if name == "mesh10x10" {
			nodes = 100
		}
		net, _ := buildNet(t, topo, defaultNoC(), nodes)
		rng := rand.New(rand.NewSource(7))
		var pkts []*Packet
		for i := 0; i < 300; i++ {
			src, dst := rng.Intn(nodes), rng.Intn(nodes)
			if src == dst {
				continue
			}
			class := ClassRequest
			size := 1
			if rng.Intn(2) == 0 {
				class = ClassReply
				size = 9
			}
			pkts = append(pkts, &Packet{
				ID: uint64(i), Src: src, Dst: dst, Class: class, SizeFlits: size,
			})
		}
		if got := runTraffic(t, net, pkts, 30000); got != len(pkts) {
			t.Fatalf("%s: delivered %d/%d", name, got, len(pkts))
		}
		if err := net.CheckCreditInvariant(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// After delivery of everything, the network must drain.
		for i := 0; i < 100; i++ {
			net.Tick()
		}
		if !net.Quiet() {
			t.Fatalf("%s: network did not drain", name)
		}
	}
}

// TestAdaptiveRoutingDelivers floods the mesh under adaptive routing
// and checks delivery and deadlock freedom via the escape VC.
func TestAdaptiveRoutingDelivers(t *testing.T) {
	for _, alg := range []config.RoutingAlg{config.RoutingAdaptive} {
		cfg := defaultNoC()
		cfg.Routing = alg
		topo := NewMesh(8, 8, MeshPolicy{Alg: alg, ReqOrder: config.OrderXY, RepOrder: config.OrderXY})
		net, _ := buildNet(t, topo, cfg, 64)
		rng := rand.New(rand.NewSource(11))
		var pkts []*Packet
		for i := 0; i < 400; i++ {
			src, dst := rng.Intn(64), rng.Intn(64)
			if src == dst {
				continue
			}
			pkts = append(pkts, &Packet{
				ID: uint64(i), Src: src, Dst: dst,
				Class: ClassReply, SizeFlits: 5,
			})
		}
		if got := runTraffic(t, net, pkts, 60000); got != len(pkts) {
			t.Fatalf("%v: delivered %d/%d", alg, got, len(pkts))
		}
		if err := net.CheckCreditInvariant(); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
	}
}

// TestCPUPriorityLowersLatency saturates a link with GPU traffic and
// verifies CPU packets cut ahead.
func TestCPUPriorityLowersLatency(t *testing.T) {
	cfg := defaultNoC()
	net, _ := buildNet(t, meshTopo(), cfg, 64)
	rng := rand.New(rand.NewSource(3))
	var gpu, cpu []*Packet
	// Many-to-one GPU load onto node 0, sprinkled CPU packets on the
	// same paths.
	for i := 0; i < 200; i++ {
		src := 1 + rng.Intn(63)
		gpu = append(gpu, &Packet{ID: uint64(i), Src: src, Dst: 0,
			Class: ClassReply, Prio: PrioGPU, SizeFlits: 9})
	}
	for i := 0; i < 20; i++ {
		src := 1 + rng.Intn(63)
		cpu = append(cpu, &Packet{ID: uint64(1000 + i), Src: src, Dst: 0,
			Class: ClassReply, Prio: PrioCPU, SizeFlits: 5})
	}
	all := append(append([]*Packet{}, gpu...), cpu...)
	if got := runTraffic(t, net, all, 100000); got != len(all) {
		t.Fatalf("delivered %d/%d", got, len(all))
	}
	avg := func(ps []*Packet) float64 {
		var s float64
		for _, p := range ps {
			s += float64(p.Ejected - p.Injected)
		}
		return s / float64(len(ps))
	}
	if avg(cpu) >= avg(gpu) {
		t.Fatalf("CPU latency %.1f not better than GPU %.1f", avg(cpu), avg(gpu))
	}
}

// TestFlitConservation checks injected flit count equals ejected flit
// count once traffic drains.
func TestFlitConservation(t *testing.T) {
	net, _ := buildNet(t, meshTopo(), defaultNoC(), 64)
	rng := rand.New(rand.NewSource(5))
	var pkts []*Packet
	want := int64(0)
	for i := 0; i < 250; i++ {
		src, dst := rng.Intn(64), rng.Intn(64)
		if src == dst {
			continue
		}
		size := 1 + rng.Intn(9)
		want += int64(size)
		pkts = append(pkts, &Packet{ID: uint64(i), Src: src, Dst: dst,
			Class: ClassRequest, SizeFlits: size})
	}
	if got := runTraffic(t, net, pkts, 60000); got != len(pkts) {
		t.Fatalf("delivered %d/%d", got, len(pkts))
	}
	inj := net.InjectedFlits(ClassRequest) + net.InjectedFlits(ClassReply)
	ej := net.EjectedFlits(ClassRequest) + net.EjectedFlits(ClassReply)
	if inj != want || ej != want {
		t.Fatalf("flits injected %d ejected %d, want %d", inj, ej, want)
	}
}

// TestSharedPhysVCIsolation verifies class VC ranges do not overlap on
// a shared physical network.
func TestSharedPhysVCIsolation(t *testing.T) {
	cfg := defaultNoC()
	cfg.SharedPhys = true
	cfg.ReqVCs, cfg.RepVCs = 1, 3
	net, _ := buildNet(t, meshTopo(), cfg, 64)
	lo, hi := net.VCRange(ClassRequest)
	lo2, hi2 := net.VCRange(ClassReply)
	if lo != 0 || hi != 0 || lo2 != 1 || hi2 != 3 {
		t.Fatalf("VC ranges req[%d,%d] rep[%d,%d]", lo, hi, lo2, hi2)
	}
	// Traffic of both classes must still deliver.
	var pkts []*Packet
	for i := 0; i < 100; i++ {
		pkts = append(pkts, &Packet{ID: uint64(i), Src: i % 64, Dst: (i*17 + 1) % 64,
			Class: Class(i % 2), SizeFlits: 1 + 4*(i%2)})
	}
	valid := pkts[:0]
	for _, p := range pkts {
		if p.Src != p.Dst {
			valid = append(valid, p)
		}
	}
	if got := runTraffic(t, net, valid, 30000); got != len(valid) {
		t.Fatalf("delivered %d/%d", got, len(valid))
	}
}

// TestBackpressureBlocksSender fills a refusing sink and verifies the
// network back-pressures rather than dropping.
func TestBackpressureBlocksSender(t *testing.T) {
	net, _ := buildNet(t, meshTopo(), defaultNoC(), 64)
	accept := false
	got := 0
	net.NI(10).Handler = func(p *Packet) bool {
		if accept {
			got++
		}
		return accept
	}
	var pkts []*Packet
	for i := 0; i < 40; i++ {
		pkts = append(pkts, &Packet{ID: uint64(i), Src: 12, Dst: 10,
			Class: ClassRequest, SizeFlits: 2})
	}
	runTraffic(t, net, pkts, 2000)
	if got != 0 {
		t.Fatal("handler delivered while refusing")
	}
	if net.Quiet() {
		t.Fatal("network drained despite refusing sink")
	}
	accept = true
	for i := 0; i < 5000 && !net.Quiet(); i++ {
		net.Tick()
	}
	// All queued packets must eventually arrive.
	if got == 0 || !net.Quiet() {
		t.Fatalf("after unblocking: got=%d quiet=%v", got, net.Quiet())
	}
	if err := net.CheckCreditInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestPacketLatencyRecorded(t *testing.T) {
	net, _ := buildNet(t, meshTopo(), defaultNoC(), 64)
	p := &Packet{ID: 1, Src: 0, Dst: 7, Class: ClassRequest, Prio: PrioCPU, SizeFlits: 1}
	runTraffic(t, net, []*Packet{p}, 500)
	if net.PktLat[PrioCPU].Count() != 1 {
		t.Fatal("latency not recorded for CPU priority")
	}
	net.ResetStats()
	if net.PktLat[PrioCPU].Count() != 0 || net.InjectedFlits(ClassRequest) != 0 {
		t.Fatal("ResetStats incomplete")
	}
}

func TestPortUtilization(t *testing.T) {
	net, _ := buildNet(t, meshTopo(), defaultNoC(), 64)
	var pkts []*Packet
	for i := 0; i < 50; i++ {
		pkts = append(pkts, &Packet{ID: uint64(i), Src: 0, Dst: 7,
			Class: ClassRequest, SizeFlits: 4})
	}
	runTraffic(t, net, pkts, 5000)
	if net.PortUtilization(0, PortE) <= 0 {
		t.Fatal("east port of router 0 shows no utilization")
	}
	if net.FlitHops() <= 0 {
		t.Fatal("no flit hops recorded")
	}
}

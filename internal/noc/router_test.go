package noc

import (
	"testing"

	"delrep/internal/config"
)

// twoNodeNet builds a minimal 2x1 mesh for router-internal tests.
func twoNodeNet() *Network {
	topo := NewMesh(2, 1, MeshPolicy{
		Alg: config.RoutingCDR, ReqOrder: config.OrderXY, RepOrder: config.OrderXY,
	})
	cfg := config.Default().NoC
	net := NewNetwork("t", topo, cfg, 2, Params{
		InjCapCore: 8, InjCapMem: 8, EjCap: 24, AsmCap: 4,
	})
	for n := 0; n < 2; n++ {
		net.NI(n).Handler = func(p *Packet) bool { return true }
	}
	return net
}

// allows reports whether output VC o is a routing candidate for the
// head packet of input VC i.
func allows(r *Router, i, o int) bool { return r.candidates(i)[o>>6]&bit(o) != 0 }

func TestClaimedBitmapCoversCandidates(t *testing.T) {
	// The candidate mask route() folds must answer exactly the question
	// a linear candidate scan answers: does any candidate permit output
	// (port, vc)? The mesh DOR route of a packet 0 -> 1 at router 0 is
	// the single candidate (PortE, every VC of the class).
	net := twoNodeNet()
	r0 := net.Routers[0]
	numVCs := r0.numVCs
	in := PortLocal*numVCs + 1
	pkt := &Packet{ID: 1, Src: 0, Dst: 1, Class: ClassRequest, SizeFlits: 1}
	r0.pushFlit(in, Flit{Pkt: pkt})
	r0.route(in)
	cands := net.topo.Route(net, 0, pkt, nil)
	for port := 0; port < r0.nports; port++ {
		for vc := 0; vc < numVCs; vc++ {
			want := false
			for _, c := range cands {
				want = want || c.Port == port && c.VCLo <= vc && vc <= c.VCHi
			}
			if got := allows(r0, in, port*numVCs+vc); got != want {
				t.Errorf("allows(%d,%d) = %v, want %v", port, vc, got, want)
			}
		}
	}
	if !allows(r0, in, PortE*numVCs) {
		t.Fatal("DOR candidate missing from the mask")
	}
	// The tail's departure clears the mask with the route.
	r0.allocateVCs()
	r0.traverse(in)
	if allows(r0, in, PortE*numVCs) || (r0.pri[0][0]|r0.pri[1][0]|r0.pri[2][0])&bit(in) != 0 {
		t.Error("candidate mask survives the tail's departure")
	}
}

// eastOwners returns the wormhole owners of the east output port's VCs.
func eastOwners(r *Router) (owners []int32) {
	for _, v := range r.vc[PortE*r.numVCs : (PortE+1)*r.numVCs] {
		owners = append(owners, v.owner)
	}
	return owners
}

func TestWormholeOwnershipReleasedOnTail(t *testing.T) {
	net := twoNodeNet()
	p := &Packet{ID: 1, Src: 0, Dst: 1, Class: ClassReply, SizeFlits: 6}
	net.NI(0).Inject(p)
	r0 := net.Routers[0]
	sawHeld := false
	for i := 0; i < 100; i++ {
		net.Tick()
		for _, owner := range eastOwners(r0) {
			if owner != ownerFree {
				sawHeld = true
			}
		}
		if p.Ejected > 0 {
			break
		}
	}
	if !sawHeld {
		t.Fatal("east output VC was never held during the packet transfer")
	}
	for i := 0; i < 50; i++ {
		net.Tick()
	}
	for v, owner := range eastOwners(r0) {
		if owner != ownerFree {
			t.Fatalf("VC %d still owned after tail passed", v)
		}
	}
	if p.Ejected == 0 {
		t.Fatal("packet never delivered")
	}
}

func TestFlitHopAccounting(t *testing.T) {
	net := twoNodeNet()
	p := &Packet{ID: 1, Src: 0, Dst: 1, Class: ClassRequest, SizeFlits: 3}
	net.NI(0).Inject(p)
	for i := 0; i < 100 && p.Ejected == 0; i++ {
		net.Tick()
	}
	// 3 flits x 2 hops (router 0 -> router 1 -> ejection) = 6 flit-hops.
	if net.FlitHops() != 6 {
		t.Fatalf("flit hops = %d, want 6", net.FlitHops())
	}
	if p.Hops != 6 {
		t.Fatalf("packet hops = %d, want 6", p.Hops)
	}
}

func TestHigherPriorityAllocatesFirst(t *testing.T) {
	// Two packets at the same router both want the east output; with a
	// single VC available per class range, the CPU-priority packet must
	// win the VC first.
	topo := NewMesh(2, 1, MeshPolicy{
		Alg: config.RoutingCDR, ReqOrder: config.OrderXY, RepOrder: config.OrderXY,
	})
	cfg := config.Default().NoC
	cfg.VCsPerClass = 1
	net := NewNetwork("t", topo, cfg, 2, Params{
		InjCapCore: 8, InjCapMem: 8, EjCap: 24, AsmCap: 4,
	})
	var order []Priority
	net.NI(1).Handler = func(p *Packet) bool {
		order = append(order, p.Prio)
		return true
	}
	gpu := &Packet{ID: 1, Src: 0, Dst: 1, Class: ClassReply, Prio: PrioGPU, SizeFlits: 9}
	cpu := &Packet{ID: 2, Src: 0, Dst: 1, Class: ClassReply, Prio: PrioCPU, SizeFlits: 5}
	// Both queued before any cycle runs: the NI binds them in queue
	// order, but with one VC only one streams at a time; priority acts
	// at every allocation point thereafter.
	net.NI(0).Inject(cpu)
	net.NI(0).Inject(gpu)
	for i := 0; i < 300 && len(order) < 2; i++ {
		net.Tick()
	}
	if len(order) != 2 {
		t.Fatalf("delivered %d packets", len(order))
	}
	if order[0] != PrioCPU {
		t.Fatalf("CPU packet delivered second")
	}
}

func TestBufferedFlits(t *testing.T) {
	net := twoNodeNet()
	r0 := net.Routers[0]
	if r0.BufferedFlits() != 0 {
		t.Fatal("fresh router holds flits")
	}
	net.NI(0).Inject(&Packet{ID: 1, Src: 0, Dst: 1, Class: ClassRequest, SizeFlits: 12})
	buffered := false
	for i := 0; i < 5; i++ {
		net.Tick()
		if r0.BufferedFlits() > 0 {
			buffered = true
		}
	}
	if !buffered {
		t.Fatal("no flits ever buffered while streaming a 12-flit packet")
	}
}

func TestAcceptFlitOverflowPanics(t *testing.T) {
	net := twoNodeNet()
	r0 := net.Routers[0]
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on buffer overflow")
		}
	}()
	f := Flit{Pkt: &Packet{SizeFlits: 100}}
	for i := 0; i < 100; i++ {
		r0.pushFlit(PortW*r0.numVCs, f)
	}
}

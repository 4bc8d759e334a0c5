package noc

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"delrep/internal/config"
)

// This file pins the allocators' decisions by a reference, not only by
// digests: refRouter is the router as it stood before its state was
// rebuilt around flat arrays and state words — one vcBuf record per
// input VC, a per-tick headPrio classification of every slot, rotating
// loops over all nports × numVCs slots — kept test-only, with traversal
// reduced to its effect on router state. TestAllocatorsMatchReference
// drives it and the real Router through the same seeded random
// arrivals and credit returns and requires identical state after every
// tick: the grants (outVC/owner), the traversal set (ring occupancy,
// credits), saInPtr and vaOutPtr.

// vcBuf is the reference input VC: flit queue, candidate mask, and the
// routing/allocation state of the packet at its front.
type vcBuf struct {
	q       []Flit
	mask    []uint64 // bit (port*numVCs + vc) set: candidate output VC
	routed  bool
	outPort int
	outVC   int
}

func (b *vcBuf) allows(bit int) bool { return b.mask[bit>>6]&(1<<(uint(bit)&63)) != 0 }

type refRouter struct {
	net            *Network
	id             int
	nports, numVCs int
	inFlat         []vcBuf
	credits        []int
	owner          []int32 // port<<8|vc of the holding input VC, -1 free
	connected      []bool
	saInPtr        []int
	vaOutPtr       []int
	inputUsed      []bool
	outputUsed     []bool
	headPrio       []int8
	reqMask        [3][]uint64
}

// mirror builds the reference twin of a freshly wired router.
func mirror(r *Router) *refRouter {
	nports := len(r.ports)
	n := nports * r.numVCs
	ref := &refRouter{
		net: r.net, id: r.ID, nports: nports, numVCs: r.numVCs,
		inFlat:  make([]vcBuf, n),
		credits: make([]int, n), owner: make([]int32, n),
		connected: make([]bool, nports),
		saInPtr:   make([]int, nports), vaOutPtr: make([]int, nports),
		inputUsed: make([]bool, nports), outputUsed: make([]bool, nports),
		headPrio: make([]int8, n),
	}
	words := (n + 63) / 64
	for i := range ref.reqMask {
		ref.reqMask[i] = make([]uint64, words)
	}
	for i := range ref.inFlat {
		ref.inFlat[i] = vcBuf{mask: make([]uint64, words), outPort: -1, outVC: -1}
		ref.credits[i] = int(r.vc[i].credits)
		ref.owner[i] = -1
	}
	for p := range ref.connected {
		ref.connected[p] = r.ports[p].to >= 0 || r.ports[p].eject != nil
	}
	return ref
}

// allocateVCs is the pre-rebuild Router.allocateVCs.
func (r *refRouter) allocateVCs() {
	numVCs := r.numVCs
	var waiting [3]int
	headPrio := r.headPrio
	for _, req := range r.reqMask {
		clear(req)
	}
	for idx := range r.inFlat {
		b := &r.inFlat[idx]
		if len(b.q) == 0 || b.outPort >= 0 {
			headPrio[idx] = -1
			continue
		}
		head := &b.q[0]
		if !b.routed {
			if !head.Head() {
				panic("reference: body flit at VC front without allocated route")
			}
			for _, c := range r.net.topo.Route(r.net, r.id, head.Pkt, nil) {
				for vc := c.VCLo; vc <= c.VCHi; vc++ {
					bit := c.Port*numVCs + vc
					b.mask[bit>>6] |= 1 << (uint(bit) & 63)
				}
			}
			b.routed = true
		}
		prio := head.Pkt.Prio
		headPrio[idx] = int8(prio)
		for w, m := range b.mask {
			r.reqMask[prio][w] |= m
		}
		waiting[prio]++
	}
	total := r.nports * numVCs
	for prio := int(PrioCPU); prio >= int(PrioGPU); prio-- {
		if waiting[prio] == 0 {
			continue
		}
		granted := 0
	outputs:
		for w, word := range r.reqMask[prio] {
			for ; word != 0; word &= word - 1 {
				bit := w<<6 + bits.TrailingZeros64(word)
				if r.owner[bit] != -1 || r.credits[bit] <= 0 {
					continue
				}
				op := bit / numVCs
				for k := 0; k < total; k++ {
					idx := r.vaOutPtr[op] + k
					if idx >= total {
						idx -= total
					}
					if int(headPrio[idx]) != prio {
						continue
					}
					b := &r.inFlat[idx]
					if !b.allows(bit) {
						continue
					}
					r.owner[bit] = int32(idx/numVCs<<8 | idx%numVCs)
					b.outPort = op
					b.outVC = bit - op*numVCs
					headPrio[idx] = -1
					r.vaOutPtr[op] = idx + 1
					if r.vaOutPtr[op] == total {
						r.vaOutPtr[op] = 0
					}
					granted++
					break
				}
				if granted == waiting[prio] {
					break outputs
				}
			}
		}
	}
}

// switchAllocAndTraverse is the pre-rebuild
// Router.switchAllocAndTraverse; now is the network cycle.
func (r *refRouter) switchAllocAndTraverse(now int64) {
	numVCs := r.numVCs
	headPrio := r.headPrio
	var present [3]int
	for idx := range r.inFlat {
		b := &r.inFlat[idx]
		if len(b.q) == 0 || b.outPort < 0 || r.credits[b.outPort*numVCs+b.outVC] <= 0 {
			headPrio[idx] = -1
			continue
		}
		prio := b.q[0].Pkt.Prio
		headPrio[idx] = int8(prio)
		present[prio]++
	}
	if present == [3]int{} {
		return
	}
	for i := range r.inputUsed {
		r.inputUsed[i] = false
		r.outputUsed[i] = false
	}
	base := int((now - 1) % int64(r.nports))
	for prio := int(PrioCPU); prio >= int(PrioGPU); prio-- {
		if present[prio] == 0 {
			continue
		}
		for i := 0; i < r.nports; i++ {
			p := base + i
			if p >= r.nports {
				p -= r.nports
			}
			if r.inputUsed[p] {
				continue
			}
			pv := p * numVCs
			for j := 0; j < numVCs; j++ {
				v := r.saInPtr[p] + j
				if v >= numVCs {
					v -= numVCs
				}
				if int(headPrio[pv+v]) != prio {
					continue
				}
				b := &r.inFlat[pv+v]
				if r.outputUsed[b.outPort] {
					continue
				}
				outPort := b.outPort
				r.traverse(b)
				r.inputUsed[p] = true
				r.outputUsed[outPort] = true
				r.saInPtr[p] = v + 1
				if r.saInPtr[p] == numVCs {
					r.saInPtr[p] = 0
				}
				break
			}
		}
	}
}

// traverse is the state effect of the pre-rebuild Router.traverse: pop,
// spend a credit on a connected output, release the channel on a tail.
func (r *refRouter) traverse(b *vcBuf) {
	f := b.q[0]
	b.q = b.q[1:]
	o := b.outPort*r.numVCs + b.outVC
	if r.connected[b.outPort] {
		r.credits[o]--
	}
	if f.Tail() {
		r.owner[o] = -1
		b.outPort, b.outVC = -1, -1
		clear(b.mask)
		b.routed = false
	}
}

// diff reports the first difference between the reference and the real
// router's allocation-visible state.
func (r *refRouter) diff(real *Router) error {
	for i := range r.inFlat {
		b, v := &r.inFlat[i], &real.vc[i]
		outVC, owner := int32(-1), int32(-1)
		if b.outPort >= 0 {
			outVC = int32(b.outPort*r.numVCs + b.outVC)
		}
		if r.owner[i] >= 0 {
			owner = r.owner[i]>>8*int32(r.numVCs) + r.owner[i]&0xff
		}
		routed := (real.pri[0][i>>6]|real.pri[1][i>>6]|real.pri[2][i>>6])&bit(i) != 0
		switch {
		case len(b.q) != int(v.qlen):
			return fmt.Errorf("VC %d: %d flits buffered, reference %d", i, v.qlen, len(b.q))
		case len(b.q) > 0 && b.q[0] != *real.front(i):
			return fmt.Errorf("VC %d: front flit %+v, reference %+v", i, *real.front(i), b.q[0])
		case outVC != v.outVC:
			return fmt.Errorf("VC %d: holds output VC %d, reference %d", i, v.outVC, outVC)
		case owner != v.owner:
			return fmt.Errorf("output VC %d: owner %d, reference %d", i, v.owner, owner)
		case r.credits[i] != int(v.credits):
			return fmt.Errorf("output VC %d: %d credits, reference %d", i, v.credits, r.credits[i])
		case b.routed != routed:
			return fmt.Errorf("VC %d: routed %v, reference %v", i, routed, b.routed)
		}
		if routed && !slices.Equal(b.mask, real.candidates(i)) { // an unrouted VC has no row
			return fmt.Errorf("VC %d: candidate mask %x, reference %x", i, real.candidates(i), b.mask)
		}
	}
	for p := 0; p < r.nports; p++ {
		if r.saInPtr[p] != int(real.saInPtr[p]) || r.vaOutPtr[p] != int(real.vaOutPtr[p]) {
			return fmt.Errorf("port %d: saInPtr %d vaOutPtr %d, reference %d %d",
				p, real.saInPtr[p], real.vaOutPtr[p], r.saInPtr[p], r.vaOutPtr[p])
		}
	}
	return nil
}

// allocatorCase is one router under test: a topology, a NoC
// configuration, and which router of the network to drive.
type allocatorCase struct {
	name   string
	topo   Topology
	nodes  int
	router int
	cfg    func(*config.NoC)
}

func allocatorCases() []allocatorCase {
	cdr := MeshPolicy{Alg: config.RoutingCDR, ReqOrder: config.OrderXY, RepOrder: config.OrderYX}
	shared := func(req, rep int) func(*config.NoC) {
		return func(c *config.NoC) { c.SharedPhys, c.ReqVCs, c.RepVCs = true, req, rep }
	}
	return []allocatorCase{
		{"mesh5x2", NewMesh(5, 2, cdr), 10, 6, nil},
		{"mesh5x2/1vc", NewMesh(5, 2, cdr), 10, 2, func(c *config.NoC) { c.VCsPerClass = 1 }},
		{"mesh5x2/adaptive", NewMesh(5, 2, MeshPolicy{Alg: config.RoutingAdaptive, ReqOrder: config.OrderXY, RepOrder: config.OrderXY}), 10, 7,
			func(c *config.NoC) { c.VCsPerClass, c.Routing = 3, config.RoutingAdaptive }},
		{"mesh5x2/shared1+3", NewMesh(5, 2, cdr), 10, 3, shared(1, 3)},
		{"mesh5x2/shared4+4", NewMesh(5, 2, cdr), 10, 8, shared(4, 4)},
		{"dragonfly2x9", NewDragonfly(18, 9), 18, 5, nil},
		{"dragonfly2x9/shared4+4", NewDragonfly(18, 9), 18, 12, shared(4, 4)},
		{"fbfly4x4", NewFlattenedButterfly(4, 4, config.OrderXY, config.OrderYX), 16, 9, nil},
		{"crossbar70", NewCrossbar(70), 70, 0, nil},
		{"crossbar70/shared4+4", NewCrossbar(70), 70, 0, shared(4, 4)},
		{"crossbar70/depth1", NewCrossbar(70), 70, 0, func(c *config.NoC) { c.FlitsPerVC = 1 }},
	}
}

// feed is the traffic source of one input VC: the packet whose flits
// are arriving and the next flit's sequence number.
type feed struct {
	pkt *Packet
	seq int
}

func TestAllocatorsMatchReference(t *testing.T) {
	const ejCap = 6
	for _, tc := range allocatorCases() {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				cfg := defaultNoC()
				if tc.cfg != nil {
					tc.cfg(&cfg)
				}
				net := NewNetwork("ref", tc.topo, cfg, tc.nodes, Params{InjCapCore: 8, InjCapMem: 8, EjCap: ejCap, AsmCap: 4})
				net.DebugChecks = true // recount the state words every tick
				real := net.Routers[tc.router]
				ref := mirror(real)
				rng := rand.New(rand.NewSource(seed))
				feeds := make([]feed, len(real.vc))
				var nextID uint64
				ticks := 4000
				if len(real.ports) > 16 {
					ticks = 600
				}
				// Phases of scarce and plentiful credit, so that zero-credit
				// and long-owned outputs both occur.
				for tick := 0; tick < ticks; tick++ {
					net.begin()
					if rng.Intn(4) == 0 { // a router that slept: the SA port order moved on
						for k := rng.Intn(5); k > 0; k-- {
							net.begin()
						}
					}
					pCredit := []float64{0.05, 0.3, 0.9}[tick/200%3]
					for i := range real.vc {
						// Arrivals: the next flit of the VC's packet, or a new
						// packet of a class that may use this VC.
						if int(real.vc[i].qlen) < real.depth && rng.Float64() < 0.4 {
							fd := &feeds[i]
							if fd.pkt == nil {
								nextID++
								cls := ClassRequest
								if lo, hi := net.VCRange(ClassReply); i%real.numVCs >= lo && i%real.numVCs <= hi && (cfg.SharedPhys || rng.Intn(2) == 0) {
									cls = ClassReply
								}
								*fd = feed{pkt: &Packet{ID: nextID, Dst: rng.Intn(tc.nodes), Class: cls,
									Prio: Priority(rng.Intn(3)), SizeFlits: 1 + rng.Intn(5)}}
							}
							f := Flit{Pkt: fd.pkt, Seq: fd.seq}
							real.pushFlit(i, f)
							ref.inFlat[i].q = append(ref.inFlat[i].q, f)
							if fd.seq++; fd.seq == fd.pkt.SizeFlits {
								*fd = feed{}
							}
						}
						// Credit returns on connected outputs, up to the buffer size.
						limit := real.depth
						if real.ports[real.vc[i].port].eject != nil {
							limit = ejCap
						}
						if ref.connected[real.vc[i].port] && ref.credits[i] < limit && rng.Float64() < pCredit {
							real.addCredit(i, 1)
							ref.credits[i]++
						}
					}
					ref.allocateVCs()
					ref.switchAllocAndTraverse(net.now)
					if real.buffered > 0 { // awake implies buffered > 0
						real.wake()
					}
					real.tick()
					if err := ref.diff(real); err != nil {
						t.Fatalf("tick %d (cycle %d): %v", tick, net.now, err)
					}
				}
				if net.ctr.flitHops == 0 {
					t.Fatal("no flit ever traversed: the scenario exercises nothing")
				}
			})
		}
	}
}

// twin drives one router of a fresh network and its reference twin
// through hand-placed traffic, one cycle at a time.
type twin struct {
	t    *testing.T
	net  *Network
	real *Router
	ref  *refRouter
	id   uint64
}

func newTwin(t *testing.T, tc allocatorCase) *twin {
	net := NewNetwork("twin", tc.topo, defaultNoC(), tc.nodes, Params{InjCapCore: 8, InjCapMem: 8, EjCap: 6, AsmCap: 4})
	net.DebugChecks = true // recount the state words every tick
	real := net.Routers[tc.router]
	return &twin{t: t, net: net, real: real, ref: mirror(real)}
}

// send queues a whole three-flit packet (head, body, tail) on input VC
// i of both routers.
func (g *twin) send(i, dst int, prio Priority) {
	g.id++
	p := &Packet{ID: g.id, Dst: dst, Class: ClassRequest, Prio: prio, SizeFlits: 3}
	for seq := range p.SizeFlits {
		f := Flit{Pkt: p, Seq: seq}
		g.real.pushFlit(i, f)
		g.ref.inFlat[i].q = append(g.ref.inFlat[i].q, f)
	}
}

// credit sets every connected output VC to c >= 1 credits in both
// routers, through addCredit where that sets an avail or ready bit.
func (g *twin) credit(c int) {
	for o := range g.real.vc {
		if !g.ref.connected[g.real.vc[o].port] {
			continue
		}
		if g.real.vc[o].credits == 0 {
			g.real.addCredit(o, 1)
		}
		g.real.vc[o].credits, g.ref.credits[o] = int32(c), c
	}
}

// saInPtr sets the switch-allocation VC pointer of port p in both routers.
func (g *twin) saInPtr(p, s int) { g.real.saInPtr[p], g.ref.saInPtr[p] = int32(s), s }

// sendable counts the heads that hold a credited output VC.
func (g *twin) sendable() int {
	n := 0
	for w := range g.real.occ {
		n += bits.OnesCount64(g.real.occ[w] & g.real.ready[w])
	}
	return n
}

// tick runs the next network cycle on both routers and requires equal
// state after it.
func (g *twin) tick() {
	g.t.Helper()
	g.net.begin()
	g.ref.allocateVCs()
	g.ref.switchAllocAndTraverse(g.net.now)
	g.real.wake()
	g.real.tick()
	if err := g.ref.diff(g.real); err != nil {
		g.t.Fatalf("cycle %d (switch-allocation start port %d): %v", g.net.now, *g.real.saStart, err)
	}
}

// TestLoneHeadGrantMatchesReference pins switch allocation's two
// paths to the reference. Lone: for every input VC, every saInPtr value
// of its port and every start port, the router holds one packet whose
// front flit is the only sendable head; heads, bodies and tails at all
// three priorities go out on a last credit and on a spare one. Two: the
// smallest sets that must still arbitrate, two sendable heads on one
// input port, on one output port, at different priorities and, where
// the state spans several words, one in the first word and one in the
// last, so a per-word count cannot pass for the total.
func TestLoneHeadGrantMatchesReference(t *testing.T) {
	for _, tc := range allocatorCases() {
		if tc.name != "mesh5x2" && tc.name != "crossbar70" {
			continue
		}
		t.Run(tc.name+"/lone", func(t *testing.T) {
			g := newTwin(t, tc)
			r, nports := g.real, len(g.real.ports)
			type combo struct {
				prio       Priority
				seq        int
				lastCredit bool
			}
			seen := map[combo]bool{}
			pkts, ticks := 0, 0
			for i := range r.vc {
				p := int(r.vc[i].port)
				for s := range r.numVCs {
					// The first nports ticks start switch allocation at
					// every port once; then the VC drains.
					for n := 0; n < nports || r.buffered > 0; n++ {
						if r.buffered == 0 {
							g.send(i, (i+n)%tc.nodes, Priority(pkts%3))
							pkts++
						}
						c := 1 + 2*(ticks%2)
						ticks++
						g.credit(c)
						g.saInPtr(p, s)
						f := *r.front(i)
						g.tick()
						if r.buffered != 2-f.Seq {
							t.Fatalf("VC %d: flit %d of a lone packet did not traverse", i, f.Seq)
						}
						seen[combo{f.Pkt.Prio, f.Seq, c == 1}] = true
					}
				}
			}
			if len(seen) != 3*3*2 {
				t.Fatalf("covered %d of the 18 priority × flit × credit combinations", len(seen))
			}
		})
		t.Run(tc.name+"/two", func(t *testing.T) {
			g := newTwin(t, tc)
			r, nports, nvc := g.real, len(g.real.ports), g.real.numVCs
			outPort := func(dst int) int {
				return tc.topo.Route(g.net, tc.router, &Packet{Dst: dst, Class: ClassRequest}, nil)[0].Port
			}
			far := 1
			for outPort(far) == outPort(0) {
				far++
			}
			type head struct {
				vc, dst int
				prio    Priority
			}
			type row struct {
				name  string
				heads [2]head
			}
			rows := []row{
				{"one input port", [2]head{{0, 0, PrioGPU}, {1, far, PrioGPU}}},
				{"one output port", [2]head{{0, far, PrioCPU}, {nvc, far, PrioCPU}}},
				{"different priorities", [2]head{{0, far, PrioGPU}, {nvc, far, PrioCPU}}},
			}
			if len(r.occ) > 1 { // the first VC and the last are in different words
				rows = append(rows, row{"different words", [2]head{{0, 0, PrioGPU}, {len(r.vc) - 1, far, PrioGPU}}})
			}
			for _, row := range rows {
				most := 0
				for s := range nvc {
					for start := range nports {
						// Let cycles pass, as for a sleeping router, until the
						// next tick starts switch allocation at this port.
						for (int(*r.saStart)+1)%nports != start {
							g.net.begin()
						}
						for _, h := range row.heads {
							g.send(h.vc, h.dst, h.prio)
						}
						for r.buffered > 0 {
							g.credit(1 + 2*(r.buffered%2))
							for p := range nports {
								g.saInPtr(p, s)
							}
							most = max(most, g.sendable())
							g.tick()
						}
					}
				}
				if most != 2 {
					t.Fatalf("%s: at most %d sendable heads, want 2", row.name, most)
				}
			}
		})
	}
}

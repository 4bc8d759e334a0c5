package noc

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"delrep/internal/par"
)

// The wake-source inventory (DESIGN.md §9): a dormant router is skipped
// until pushFlit (link flit arrival, local NI injection) or addCredit
// (link credit arrival, NI ejection credit return) touches it. Each
// router test below clogs a column of the mesh so that two routers hold
// stuck flits and go dormant, fires exactly one wake source at a
// dormant router, and requires the observable outcome — the cycle a
// port first moves, every packet's ejection cycle — to equal a
// reference run in which no router or NI is ever allowed to sleep; the
// N=4 rows pass four workers to the deprecated SetParallel first, which
// must change nothing. A
// refused NI sleeps until Inject, RemoveQueued, a pop from the router
// input port it feeds, or its earliest queue head's ReadyAt; the NI
// tests fire one each and compare injection and ejection cycles.

const (
	wakeUp = 8  // source of the stuck flow (row 1)
	wakeDn = 16 // its refusing destination, one hop south (row 2)
)

// wakeRig is an 8x8 mesh in which node wakeDn refuses every packet
// while blocked is set.
type wakeRig struct {
	t       *testing.T
	net     *Network
	awake   bool // reference mode: wake every router and NI before each cycle
	blocked bool
	stuck   []*Packet
	nextID  uint64
}

func newWakeRig(t *testing.T, workers int, awake bool) *wakeRig {
	net, _ := buildNet(t, meshTopo(), defaultNoC(), 64)
	rig := &wakeRig{t: t, net: net, awake: awake, blocked: true}
	net.NI(wakeDn).Handler = func(*Packet) bool { return !rig.blocked }
	if workers > 1 {
		pool := par.NewPool(workers)
		t.Cleanup(pool.Close)
		net.SetParallel(pool, workers)
	}
	return rig
}

// awake reports whether router r is in the network's awake set.
func awake(r *Router) bool { return *r.awakeWord&r.awakeBit != 0 }

func (g *wakeRig) step() {
	g.compute()
	g.net.Commit()
}

// compute runs the compute step of the next cycle, in the reference run
// with every router and NI woken first.
func (g *wakeRig) compute() {
	if g.awake {
		for _, r := range g.net.Routers {
			r.wake()
		}
		clear(g.net.injDue)
		for node := range g.net.ejBusy {
			g.net.ejBusy[node] = true
		}
	}
	g.net.Compute()
}

func (g *wakeRig) packet(src, dst, flits int) *Packet {
	g.nextID++
	return &Packet{ID: g.nextID, Src: src, Dst: dst, Class: ClassRequest, SizeFlits: flits}
}

// clog floods wakeUp -> wakeDn until the refusing destination has
// backed the flow up into both routers, then lets the network settle.
// In the dormancy run both routers must end up dormant with flits
// buffered.
func (g *wakeRig) clog() {
	for cyc := 0; cyc < 400; cyc++ {
		if cyc < 200 {
			p := g.packet(wakeUp, wakeDn, 4)
			if g.net.NI(wakeUp).Inject(p) {
				g.stuck = append(g.stuck, p)
			}
		}
		g.step()
	}
	for _, r := range []int{wakeUp, wakeDn} {
		rt := g.net.Routers[r]
		if rt.buffered == 0 {
			g.t.Fatalf("router %d holds no stuck flits", r)
		}
		if !g.awake && awake(rt) {
			g.t.Fatalf("router %d is stuck but not dormant", r)
		}
	}
}

// mustBeDormant and mustBeAwake check router r's awake bit in the
// dormancy runs (the reference run keeps every router awake).
func (g *wakeRig) mustBeDormant(r int) {
	if !g.awake && awake(g.net.Routers[r]) {
		g.t.Fatalf("cycle %d: router %d should still be dormant", g.net.now, r)
	}
}

func (g *wakeRig) mustBeAwake(r int) {
	if !g.awake && !awake(g.net.Routers[r]) {
		g.t.Fatalf("cycle %d: router %d was not woken", g.net.now, r)
	}
}

// niMustSleep checks that the NI of node is asleep with injection work.
func (g *wakeRig) niMustSleep(node int) {
	if !g.awake && (g.net.injDue[node] <= g.net.now || !g.net.NI(node).injActive()) {
		g.t.Fatalf("cycle %d: NI %d should be asleep with work queued", g.net.now, node)
	}
}

// inject queues p at its source NI and fails the test if it is refused.
func (g *wakeRig) inject(p *Packet) *Packet {
	if !g.net.NI(p.Src).Inject(p) {
		g.t.Fatalf("packet %d refused", p.ID)
	}
	return p
}

// deliver runs until p has been ejected and returns its injection and
// ejection cycles.
func (g *wakeRig) deliver(p *Packet) []int64 {
	for p.Ejected == 0 {
		if g.net.now > 5000 {
			g.t.Fatalf("packet %d not delivered", p.ID)
		}
		g.step()
	}
	return []int64{p.Injected, p.Ejected}
}

// niSrc is the node whose NI the NI tests put to sleep: row 5, away
// from the clogged column.
const niSrc = 40

// drain unblocks the destination and runs until every given packet has
// been ejected, returning their ejection cycles.
func (g *wakeRig) drain(pkts []*Packet) []int64 {
	g.blocked = false
	for cyc := 0; cyc < 5000; cyc++ {
		done := true
		for _, p := range pkts {
			done = done && p.Ejected > 0
		}
		if done {
			out := make([]int64, len(pkts))
			for i, p := range pkts {
				out[i] = p.Ejected
			}
			return out
		}
		g.step()
	}
	g.t.Fatal("packets not delivered")
	return nil
}

// wakeScenario runs one scripted scenario and returns what it observed.
type wakeScenario func(g *wakeRig) []int64

// runWakeScenario requires the dormancy runs (with and without the
// deprecated SetParallel) to observe exactly what the never-dormant
// reference observes.
func runWakeScenario(t *testing.T, sc wakeScenario) {
	want := sc(newWakeRig(t, 1, true))
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("N=%d", workers), func(t *testing.T) {
			if got := sc(newWakeRig(t, workers, false)); !reflect.DeepEqual(got, want) {
				t.Fatalf("observed %v, never-dormant reference observed %v", got, want)
			}
		})
	}
}

// NI.tickEject returns ejection credits once the node accepts packets
// again: the destination router wakes in that cycle and sends on its
// ejection port in the next, exactly as if it had ticked throughout.
func TestDormantWakeEjectionCredit(t *testing.T) {
	runWakeScenario(t, func(g *wakeRig) []int64 {
		g.clog()
		g.mustBeDormant(wakeDn)
		g.blocked = false
		g.step() // the NI delivers, reassembles, returns credits
		g.mustBeAwake(wakeDn)
		sent := g.net.PortSent(wakeDn, PortLocal)
		g.step()
		if g.net.PortSent(wakeDn, PortLocal) != sent+1 {
			g.t.Fatalf("router %d did not eject the cycle after its credits returned", wakeDn)
		}
		return g.drain(g.stuck)
	})
}

// A link credit event wakes the upstream router: it forwards a flit in
// the very cycle the credit lands.
func TestDormantWakeLinkCredit(t *testing.T) {
	runWakeScenario(t, func(g *wakeRig) []int64 {
		g.clog()
		g.blocked = false
		sent := g.net.PortSent(wakeUp, PortS)
		var first int64
		for first == 0 {
			g.mustBeDormant(wakeUp) // nothing but the credit can reach it
			g.step()
			if g.net.PortSent(wakeUp, PortS) != sent {
				first = g.net.now
			}
			if g.net.now > 2000 {
				g.t.Fatalf("router %d never forwarded after the destination unblocked", wakeUp)
			}
		}
		return append(g.drain(g.stuck), first)
	})
}

// A flit arriving over a link wakes a dormant router: a probe packet
// crossing both stuck routers (24 -> 16 -> 8 -> 0, against the stuck
// flow) is forwarded on schedule while the destination stays blocked.
func TestDormantWakeLinkFlit(t *testing.T) {
	runWakeScenario(t, func(g *wakeRig) []int64 {
		g.clog()
		probe := g.packet(24, 0, 3)
		if !g.net.NI(24).Inject(probe) {
			g.t.Fatal("probe refused")
		}
		var arrived [2]int64
		for i, r := range []int{wakeDn, wakeUp} {
			sent := g.net.PortSent(r, PortN)
			for arrived[i] == 0 {
				g.mustBeDormant(r)
				g.step()
				if g.net.PortSent(r, PortN) != sent {
					arrived[i] = g.net.now
				}
				if g.net.now > 2000 {
					g.t.Fatalf("probe never crossed router %d", r)
				}
			}
		}
		for probe.Ejected == 0 && g.net.now < 2000 {
			g.step()
		}
		return []int64{arrived[0], arrived[1], probe.Ejected, int64(probe.Hops)}
	})
}

// A flit injected by the local NI wakes a dormant router in the same
// cycle (NIs inject before routers tick).
func TestDormantWakeLocalInjection(t *testing.T) {
	runWakeScenario(t, func(g *wakeRig) []int64 {
		g.clog()
		probe := g.packet(wakeDn, 24, 3)
		if !g.net.NI(wakeDn).Inject(probe) {
			g.t.Fatal("probe refused")
		}
		g.mustBeDormant(wakeDn)
		sent := g.net.PortSent(wakeDn, PortS)
		g.step() // head flit pushed, routed, allocated and forwarded this cycle
		g.mustBeAwake(wakeDn)
		if g.net.PortSent(wakeDn, PortS) != sent+1 {
			g.t.Fatalf("probe head not forwarded in its injection cycle")
		}
		for probe.Ejected == 0 && g.net.now < 2000 {
			g.step()
		}
		return []int64{probe.Injected, probe.Ejected}
	})
}

// A pop from the router input port an NI feeds wakes it: the stuck
// source's NI sleeps on a full local port, and once the destination
// unblocks it pushes again exactly when the never-sleeping NI does.
func TestDormantNIWakePop(t *testing.T) {
	runWakeScenario(t, func(g *wakeRig) []int64 {
		g.clog()
		g.niMustSleep(wakeUp)
		out := g.drain(g.stuck)
		for _, p := range g.stuck {
			out = append(out, p.Injected)
		}
		return out
	})
}

// Inject wakes an NI sleeping on a far ReadyAt: a ready packet of the
// other class is pushed in the next cycle.
func TestDormantNIWakeInject(t *testing.T) {
	runWakeScenario(t, func(g *wakeRig) []int64 {
		late := g.packet(niSrc, 47, 2)
		late.Class, late.ReadyAt = ClassReply, g.net.now+300
		g.inject(late)
		for i := 0; i < 10; i++ {
			g.step()
		}
		g.niMustSleep(niSrc)
		ready := g.inject(g.packet(niSrc, 0, 3))
		g.step()
		if ready.Injected != g.net.now {
			g.t.Fatalf("packet injected at %d, want %d", ready.Injected, g.net.now)
		}
		return append(g.deliver(ready), g.deliver(late)...)
	})
}

// RemoveQueued wakes an NI whose queue head waits for a far ReadyAt:
// the ready packet behind it becomes the head and is pushed in the
// next cycle.
func TestDormantNIWakeRemoveQueued(t *testing.T) {
	runWakeScenario(t, func(g *wakeRig) []int64 {
		late := g.packet(niSrc, 47, 2)
		late.ReadyAt = g.net.now + 300
		g.inject(late)
		next := g.inject(g.packet(niSrc, 47, 2))
		for i := 0; i < 10; i++ {
			g.step()
		}
		g.niMustSleep(niSrc)
		if g.net.NI(niSrc).RemoveQueued(ClassRequest, 0) != late {
			g.t.Fatal("RemoveQueued returned another packet")
		}
		g.step()
		if next.Injected != g.net.now {
			g.t.Fatalf("packet injected at %d, want %d", next.Injected, g.net.now)
		}
		return g.deliver(next)
	})
}

// The earliest queue head's ReadyAt wakes a refused NI: it sleeps from
// the tick that finds the head not ready until the head's ReadyAt.
func TestDormantNIWakeReadyAt(t *testing.T) {
	runWakeScenario(t, func(g *wakeRig) []int64 {
		p := g.packet(niSrc, 47, 2)
		p.ReadyAt = g.net.now + 50
		g.inject(p)
		g.step() // refused: the head is not ready
		for g.net.now < p.ReadyAt {
			g.niMustSleep(niSrc)
			g.step()
		}
		if p.Injected != p.ReadyAt {
			g.t.Fatalf("packet injected at %d, want its ReadyAt %d", p.Injected, p.ReadyAt)
		}
		return g.deliver(p)
	})
}

// An NI's ejection is due only once a whole packet waits: while the
// body flits of a 9-flit packet land, the NI stays off the commit loop,
// and the tail's arrival ejects the packet in the cycle the
// never-dormant reference (which visits every NI) ejects it.
func TestDormantNIEjectionWaitsForTail(t *testing.T) {
	runWakeScenario(t, func(g *wakeRig) []int64 {
		p := g.inject(g.packet(niSrc, 47, 9))
		ni := g.net.NI(47)
		partial := int64(0)
		for p.Ejected == 0 && g.net.now < 2000 {
			g.compute()
			flits := 0
			for v := range ni.ejBuf {
				flits += ni.ejBuf[v].Len()
			}
			if flits > 0 && ni.whole == 0 {
				if partial++; !g.awake && g.net.ejBusy[47] {
					g.t.Fatalf("cycle %d: NI 47 holds part of a packet and is on the commit loop", g.net.now)
				}
			}
			g.net.Commit()
		}
		if partial == 0 {
			g.t.Fatal("no cycle saw the packet partly buffered at its NI")
		}
		return []int64{p.Injected, p.Ejected, partial}
	})
}

// A flit queued behind a stuck front changes nothing the allocators
// read, so it leaves the router dormant, and ticking the sleeper anyway
// (DebugChecks) finds no progress; a flit into an empty VC wakes it.
// The router is driven alone: its flits leave into the delay rings and
// no credit ever returns.
func TestDormantFlitBehindFront(t *testing.T) {
	net := twoNodeNet()
	net.DebugChecks = true
	r0 := net.Routers[0]
	in := PortLocal * r0.numVCs
	a := &Packet{ID: 1, Src: 0, Dst: 1, Class: ClassRequest, SizeFlits: r0.depth + 3}
	seq := 0
	push := func(i int, f Flit) {
		net.begin()
		r0.pushFlit(i, f)
		r0.tick()
	}
	for ; seq <= r0.depth; seq++ { // the east VC's credits run out under flit `depth`
		push(in, Flit{Pkt: a, Seq: seq})
	}
	if r0.buffered != 1 || awake(r0) {
		t.Fatalf("router holds %d flits, awake %v: want one stuck front and a dormant router", r0.buffered, awake(r0))
	}
	r0.pushFlit(in, Flit{Pkt: a, Seq: seq})
	if awake(r0) {
		t.Fatal("a flit behind the stuck front woke the router")
	}
	net.begin()
	r0.tick() // a sleeper ticked anyway must make no progress
	if awake(r0) || r0.buffered != 2 {
		t.Fatalf("router awake %v holding %d flits after the checked tick", awake(r0), r0.buffered)
	}
	r0.pushFlit(in+1, Flit{Pkt: &Packet{ID: 2, Src: 0, Dst: 1, Class: ClassRequest, SizeFlits: 1}})
	if !awake(r0) {
		t.Fatal("a flit into an empty VC left the router dormant")
	}
}

// TestDormantNIDebugCheckPanics plants a missing wake: a ready packet
// queued behind Inject's back at a sleeping NI. With DebugChecks the
// sleeping NI is ticked anyway, and starting the stream is a panic
// naming the NI and the cycle.
func TestDormantNIDebugCheckPanics(t *testing.T) {
	g := newWakeRig(t, 1, false)
	late := g.packet(niSrc, 47, 2)
	late.ReadyAt = g.net.now + 300
	g.inject(late)
	g.step()
	g.niMustSleep(niSrc)
	g.net.DebugChecks = true
	g.step() // the sleeping NI ticks, makes no progress: fine
	ni := g.net.NI(niSrc)
	ni.injQ[ClassReply] = append(ni.injQ[ClassReply], g.packet(niSrc, 47, 2))
	defer func() {
		msg, _ := recover().(string)
		if want := fmt.Sprintf("noc: sleeping NI %d made progress at cycle %d", niSrc, g.net.now); msg != want {
			t.Fatalf("recovered %q, want %q", msg, want)
		}
	}()
	g.step()
}

// TestDormantDebugCheckPanics shows the self-checks: with DebugChecks
// every router's state words are recounted each cycle and a sleeping
// router is ticked anyway, so state changed behind the mutation points'
// back — a credit handed to a sleeping router without addCredit, an
// occupancy bit dropped without a pop, an empty router woken — is a
// panic naming the router and the cycle (which of the checks fires
// first depends on whether the corrupted VC was free; silence is the
// only wrong answer).
func TestDormantDebugCheckPanics(t *testing.T) {
	corruptions := map[string]struct {
		router  int
		corrupt func(r *Router)
	}{
		"credit": {wakeUp, func(r *Router) { r.vc[PortS*r.numVCs].credits++ }},
		"occ": {wakeUp, func(r *Router) {
			for w := range r.occ {
				r.occ[w] &= r.occ[w] - 1
			}
		}},
		"awake-empty": {63, (*Router).wake},
	}
	for name, c := range corruptions {
		t.Run(name, func(t *testing.T) {
			g := newWakeRig(t, 1, false)
			g.clog()
			g.net.DebugChecks = true
			g.step() // sleeping routers tick, make no progress: fine
			c.corrupt(g.net.Routers[c.router])
			defer func() {
				msg, _ := recover().(string)
				who := fmt.Sprintf("router %d ", c.router)
				when := fmt.Sprintf("cycle %d", g.net.now)
				if !strings.HasPrefix(msg, "noc: ") || !strings.Contains(msg, who) || !strings.Contains(msg, when) {
					t.Fatalf("recovered %q, want a noc panic naming %q and %q", msg, who, when)
				}
			}()
			g.step()
		})
	}
}

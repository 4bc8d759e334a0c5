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
// test below clogs a column of the mesh so that two routers hold stuck
// flits and go dormant, fires exactly one wake source at a dormant
// router, and requires the observable outcome — the cycle a port first
// moves, every packet's ejection cycle — to equal a reference run in
// which no router is ever allowed to stay dormant, at one tile and
// with the two routers on different tiles of four.

const (
	wakeUp = 8  // source of the stuck flow (row 1, tile 0 of 4)
	wakeDn = 16 // its refusing destination, one hop south (row 2, tile 1 of 4)
)

// wakeRig is an 8x8 mesh in which node wakeDn refuses every packet
// while blocked is set.
type wakeRig struct {
	t       *testing.T
	net     *Network
	awake   bool // reference mode: wake every router before each cycle
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

// awake reports whether router r is in its tile's awake set.
func awake(r *Router) bool { return *r.awakeWord&r.awakeBit != 0 }

func (g *wakeRig) step() {
	if g.awake {
		for _, r := range g.net.Routers {
			r.wake()
		}
	}
	g.net.Tick()
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

// runWakeScenario requires the dormancy runs (one tile, four tiles) to
// observe exactly what the never-dormant reference observes.
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

// TestDormantDebugCheckPanics shows the self-checks: with DebugChecks
// every router's state words are recounted each cycle and a sleeping
// router is ticked anyway, so state changed behind the mutation points'
// back — a credit handed to a sleeping router without addCredit, an
// occupancy bit dropped without a pop — is a panic naming the router
// and the cycle (which of the two checks fires first depends on whether
// the corrupted VC was free; silence is the only wrong answer).
func TestDormantDebugCheckPanics(t *testing.T) {
	corruptions := map[string]func(r *Router){
		"credit": func(r *Router) { r.vc[PortS*r.numVCs].credits++ },
		"occ": func(r *Router) {
			for w := range r.occ {
				r.occ[w] &= r.occ[w] - 1
			}
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			g := newWakeRig(t, 1, false)
			g.clog()
			g.net.DebugChecks = true
			g.step() // sleeping routers tick, make no progress: fine
			corrupt(g.net.Routers[wakeUp])
			defer func() {
				msg, _ := recover().(string)
				who := fmt.Sprintf("router %d ", wakeUp)
				when := fmt.Sprintf("cycle %d", g.net.now)
				if !strings.HasPrefix(msg, "noc: ") || !strings.Contains(msg, who) || !strings.Contains(msg, when) {
					t.Fatalf("recovered %q, want a noc panic naming %q and %q", msg, who, when)
				}
			}()
			g.step()
		})
	}
}

package noc

// This file implements deterministic tile-parallel network ticking.
//
// The network is partitioned into tiles: contiguous router ranges plus
// the NIs attached to those routers. Each cycle runs in two phases:
//
//   - Compute: every tile, on its own worker, drains last cycle's
//     staged cross-tile events into its delay ring, delivers its own
//     ring slot, injects from its own NIs, and ticks its own routers.
//     All state a tile touches in this phase is tile-owned; the one
//     cross-tile interaction — a flit or credit scheduled onto a
//     router of another tile — is staged into a per-(src,dst) buffer
//     instead of applied.
//   - Commit: after a single barrier, the coordinator folds each
//     tile's statistics delta into the canonical counters in fixed
//     tile order and runs packet ejection serially in node order.
//
// Determinism argument (DESIGN.md §11 is the long form): every
// delivery has delay >= 1, so an event staged in cycle c is never due
// before cycle c+1 — draining at the start of the next compute phase
// is always in time. Within one ring slot, delivery order is
// immaterial: credit-based flow control admits at most one flit per
// (router, input port) per cycle and link delays are uniform, so no
// two same-slot events touch the same VC ring, and credit delivery is
// a commutative increment. Statistics fold in fixed tile order, and
// every order-sensitive consumer (float latency samplers, packet
// handlers) runs in the serial commit phase in node order. The result
// is bit-identical to serial execution at every worker count.
//
// Staging buffers are double-buffered by cycle parity (par.WriteParity
// / par.DrainParity): cycle c writes stage parity c&1 and drains
// parity (c-1)&1, so writers and drainers never share a buffer and
// the end-of-cycle barrier is the only synchronization the phases
// need.
//
// The compute/commit halves are also exported separately
// (BeginTickParallel / ComputeSection / CommitTick) so the system
// tick can fuse both networks' compute phases — and the core node
// shards' begin phase — into a single pool dispatch per cycle; Tick
// remains the self-contained per-network entry point. See
// internal/core/parallel.go for the fused cycle and the Enqueued
// stamp (enqNow) argument that makes fusion exact.

import (
	"fmt"

	"delrep/internal/par"
)

// netCounters is the mutable statistics block of a Network. The
// canonical copy lives in the Network; in tiled mode each tile
// accumulates into a private delta that the commit phase folds into
// the canonical copy every cycle, so routers and NIs update counters
// through a pointer without caring which mode they run in.
type netCounters struct {
	// Activity counters (never reset): flits buffered in router input
	// rings, and flit events in flight in the delay rings.
	bufFlits int
	flyFlits int

	// Measurement counters (reset at the end of warmup).
	injFlits [2]int64 // per class
	ejFlits  [2]int64
	flitHops int64
}

// add folds a delta into the receiver.
func (c *netCounters) add(d *netCounters) {
	c.bufFlits += d.bufFlits
	c.flyFlits += d.flyFlits
	for i := range c.injFlits {
		c.injFlits[i] += d.injFlits[i]
		c.ejFlits[i] += d.ejFlits[i]
	}
	c.flitHops += d.flitHops
}

// stagedEvent is a cross-tile delivery captured during the compute
// phase: the event plus the ring slot it was scheduled into.
type stagedEvent struct {
	slot int32
	ev   event
}

// tile owns a contiguous router range [loR, hiR), the NIs attached to
// those routers, a private delay ring, and a private statistics delta.
type tile struct {
	net      *Network
	id       int
	loR, hiR int
	routers  []*Router
	nis      []*NI
	ring     [][]event // same length as the serial delay ring
	ctr      netCounters
	_        [64]byte // no false sharing between adjacent tiles' deltas
}

// schedule is the tiled replacement for Network.schedule: same-tile
// deliveries go straight into the tile's own ring; cross-tile
// deliveries are staged for the destination tile to drain next cycle.
// Delivery delays are >= 1, so next-cycle draining is always in time.
func (t *tile) schedule(delay int, ev event) {
	if delay < 1 {
		delay = 1
	}
	if ev.kind == evFlit {
		t.ctr.flyFlits++
	}
	n := t.net
	slot := (n.now + int64(delay)) % int64(len(t.ring))
	dst := n.tileOf[ev.router]
	if dst == t.id {
		t.ring[slot] = append(t.ring[slot], ev)
		return
	}
	n.stage.At(par.WriteParity(n.now), t.id, dst).S.Push(stagedEvent{slot: int32(slot), ev: ev})
}

// run executes the tile's compute phase for the current cycle:
// drain staged cross-tile events (fixed source order), deliver the
// tile ring's due slot, inject from the tile's NIs, tick the tile's
// routers. Everything it touches is owned by this tile this cycle.
func (t *tile) run() {
	n := t.net
	parity := par.DrainParity(n.now)
	for src := 0; src < n.stage.Parts(); src++ {
		sb := n.stage.At(parity, src, t.id)
		for _, se := range sb.S.Items() {
			t.ring[se.slot] = append(t.ring[se.slot], se.ev)
		}
		sb.S.Reset()
	}
	slot := n.now % int64(len(t.ring))
	evs := t.ring[slot]
	for _, ev := range evs {
		r := n.Routers[ev.router]
		switch ev.kind {
		case evFlit:
			t.ctr.flyFlits--
			r.acceptFlit(ev.port, ev.vc, ev.flit)
		case evCredit:
			r.addCredit(ev.port, ev.vc, 1)
		}
	}
	t.ring[slot] = evs[:0]
	for _, ni := range t.nis {
		if ni.injActive() {
			ni.tickInject()
		}
	}
	if n.hare {
		for _, r := range t.routers {
			r.tick()
		}
	} else {
		// The serial path's network-level bufFlits gate is only a fast
		// path over the exact per-router check; the canonical counter is
		// one fold behind during the compute phase, so tiles use the
		// per-router gate alone.
		for _, r := range t.routers {
			if r.buffered > 0 {
				r.tick()
			}
		}
	}
}

// SetParallel partitions the network into up to `workers` tiles ticked
// on the given pool. It must be called before the first cycle (the
// rings and staging buffers assume no traffic is in flight), and with
// workers <= pool.Size(). One router or one worker leaves the network
// serial. Results are bit-identical to serial execution at any worker
// count; see the package comment at the top of this file.
func (n *Network) SetParallel(pool *par.Pool, workers int) {
	if n.now != 0 {
		panic("noc: SetParallel after the first tick")
	}
	n.forceSerial()
	nt := workers
	if nt > len(n.Routers) {
		nt = len(n.Routers)
	}
	if nt <= 1 || pool == nil {
		return
	}
	if workers > pool.Size() {
		panic(fmt.Sprintf("noc: SetParallel(%d) exceeds pool size %d", workers, pool.Size()))
	}
	n.pool = pool
	n.tileOf = make([]int, len(n.Routers))
	n.tiles = make([]*tile, nt)
	bounds := par.Cuts(len(n.Routers), nt, nil)
	for i := 0; i < nt; i++ {
		t := &tile{
			net: n,
			id:  i,
			loR: bounds[i],
			hiR: bounds[i+1],
		}
		t.ring = make([][]event, len(n.ring))
		t.routers = n.Routers[t.loR:t.hiR]
		for r := t.loR; r < t.hiR; r++ {
			n.tileOf[r] = i
			n.Routers[r].tl = t
			n.Routers[r].ctr = &t.ctr
		}
		n.tiles[i] = t
	}
	for _, ni := range n.NIs {
		t := n.tiles[n.tileOf[ni.router]]
		t.nis = append(t.nis, ni)
		ni.ctr = &t.ctr
	}
	n.stage.Init(nt)
	// Prebind the fan-out closure once so the per-cycle pool.Run does
	// not allocate.
	n.sectionFn = n.section
}

// forceSerial tears down any tile partition and restores the serial
// tick path. Like SetParallel it is only legal before the first cycle.
func (n *Network) forceSerial() {
	if n.now != 0 && n.tiles != nil {
		panic("noc: forceSerial after the first tick")
	}
	for _, r := range n.Routers {
		r.tl = nil
		r.ctr = &n.ctr
	}
	for _, ni := range n.NIs {
		ni.ctr = &n.ctr
	}
	n.tiles = nil
	n.tileOf = nil
	n.stage = par.Matrix[stagedEvent]{}
	n.pool = nil
	n.sectionFn = nil
}

// Parallel returns the number of tiles the network ticks in parallel
// (1 when serial).
func (n *Network) Parallel() int {
	if n.tiles == nil {
		return 1
	}
	return len(n.tiles)
}

// section is the per-worker body of the compute phase: worker w runs
// tiles w, w+P, w+2P, ... (P = pool size). With the usual tile count
// <= pool size each worker runs at most one tile.
func (n *Network) section(worker int) {
	for i := worker; i < len(n.tiles); i += n.pool.Size() {
		n.tiles[i].run()
	}
}

// BeginTickParallel opens a tiled cycle: it advances the clock and,
// unless holdEnq is set, the injection stamp. A fused system tick
// holds the reply network's enqNow at the previous cycle until the
// request network has committed, reproducing the serial order in
// which request-ejection handlers enqueue replies before the reply
// network's own tick advances its clock (see ReleaseEnq). The hold
// also snapshots every NI's injection-buffer occupancy: the handlers
// running during the hold serially precede this network's tick, so
// capacity freed by this cycle's compute phase (streams completing)
// must stay invisible to them (see NI.occupancy).
func (n *Network) BeginTickParallel(holdEnq bool) {
	if n.tiles == nil {
		panic("noc: BeginTickParallel without a tile partition")
	}
	n.now++
	n.measured++
	if !holdEnq {
		n.enqNow = n.now
		return
	}
	n.enqHeld = true
	for _, ni := range n.NIs {
		ni.holdLen[0] = len(ni.injQ[0]) + ni.inflight[0]
		ni.holdLen[1] = len(ni.injQ[1]) + ni.inflight[1]
	}
}

// ComputeSection runs worker w's share of the tile compute phase.
// It must only be called between BeginTickParallel and CommitTick,
// from a pool dispatch that runs every worker exactly once.
func (n *Network) ComputeSection(worker int) { n.section(worker) }

// ReleaseEnq advances the injection stamp to the current cycle and
// drops the occupancy snapshot, ending the hold a
// BeginTickParallel(true) opened.
func (n *Network) ReleaseEnq() {
	n.enqNow = n.now
	n.enqHeld = false
}

// CommitTick runs the serial commit phase of a tiled cycle: fold each
// tile's statistics delta in fixed tile order, then eject packets in
// node order.
func (n *Network) CommitTick() {
	for _, t := range n.tiles {
		n.ctr.add(&t.ctr)
		t.ctr = netCounters{}
	}
	for _, ni := range n.NIs {
		if ni.ejActive() {
			ni.tickEject()
		}
	}
}

// tickTiled is the parallel form of Tick: one pool fan-out for the
// compute phase, then the serial commit phase. Exactly one barrier
// per network per cycle.
func (n *Network) tickTiled() {
	n.BeginTickParallel(false)
	n.pool.Run(n.sectionFn)
	n.CommitTick()
}

// forEachPending invokes fn for every scheduled-but-undelivered event:
// the serial delay ring, every tile's ring, and both parities of the
// staging buffers (events staged on the last cycle sit undrained until
// their destination tile's next compute phase). Quiet and the credit
// invariant check use it so they stay exact in tiled mode.
func (n *Network) forEachPending(fn func(event)) {
	for _, slot := range n.ring {
		for _, ev := range slot {
			fn(ev)
		}
	}
	for _, t := range n.tiles {
		for _, slot := range t.ring {
			for _, ev := range slot {
				fn(ev)
			}
		}
	}
	n.stage.Each(func(se stagedEvent) { fn(se.ev) })
}

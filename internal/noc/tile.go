package noc

// This file implements the network cycle: a deterministic two-phase
// tick over a partition of the network into tiles.
//
// A tile is a contiguous router range plus the NIs attached to those
// routers. Every network has at least one (NewNetwork builds the
// one-tile partition; SetParallel re-partitions), and each cycle runs
// in two phases:
//
//   - Compute: every tile drains last cycle's staged cross-tile events
//     into its delay ring, delivers its own ring slot, injects from its
//     own NIs, and ticks its own routers. All state a tile touches in
//     this phase is tile-owned; the one cross-tile interaction — a
//     flit or credit scheduled onto a router of another tile — is
//     staged into a per-(src,dst) buffer instead of applied. Tiles run
//     as sections of one pool dispatch; a single section runs inline
//     on the caller.
//   - Commit: after the dispatch returns, the coordinator folds each
//     tile's statistics delta into the canonical counters in fixed
//     tile order and runs packet ejection in node order.
//
// Why the partition size cannot change results (DESIGN.md §11 is the
// long form): every delivery has delay >= 1, so an event staged in
// cycle c is never due before cycle c+1 — draining at the start of the
// next compute phase is always in time. Within one ring slot, delivery
// order is immaterial: credit-based flow control admits at most one
// flit per (router, input port) per cycle and link delays are uniform,
// so no two same-slot events touch the same VC ring, and credit
// delivery is a commutative increment. Statistics fold in fixed tile
// order, and every order-sensitive consumer (float latency samplers,
// packet handlers) runs in the commit phase in node order.
//
// Staging buffers are double-buffered by cycle parity (par.WriteParity
// / par.DrainParity): cycle c writes stage parity c&1 and drains
// parity (c-1)&1, so writers and drainers never share a buffer and
// the end-of-dispatch barrier is the only synchronization the phases
// need.
//
// The phases are exported separately (BeginTick / ComputeSection /
// CommitTick) so the system cycle can fuse both networks' compute
// phases — and the core node shards' begin phase — into a single
// dispatch; Tick is the self-contained per-network composition. See
// internal/core/system.go for the fused cycle and the Enqueued stamp
// (enqNow) argument that makes fusion exact.

import (
	"fmt"
	"math/bits"

	"delrep/internal/par"
)

// netCounters is the mutable statistics block of a Network. The
// canonical copy lives in the Network; each tile accumulates into a
// private delta that the commit phase folds into the canonical copy
// every cycle.
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

// event is a timed delivery to flat VC index vc of a router: the flit
// (pkt, seq) arriving at that input VC, or — pkt nil — a credit for that
// output VC, which the delay rings keep as the 8-byte creditEv.
type event struct {
	pkt             *Packet
	seq, router, vc int32
}

type creditEv struct{ router, vc int32 }

// stagedEvent is a cross-tile delivery captured during the compute
// phase: the event plus the ring slot it was scheduled into.
type stagedEvent struct {
	slot int32
	ev   event
}

// tile owns a contiguous router range, the NIs attached to those
// routers, the delay rings of deliveries due at them, the set of its
// routers that need ticking, and a private statistics delta.
type tile struct {
	net     *Network
	id      int
	routers []*Router
	nodes   []int32      // the nodes whose NIs attach to those routers, ascending
	flits   [][]event    // hopDelay+2 slots, indexed by due cycle
	credits [][]creditEv // likewise
	slot    int          // this cycle's ring slot, now mod len(flits)
	// awake holds one bit per router of the tile (see Router.awakeWord):
	// the routers Step ticks.
	awake []uint64
	ctr   netCounters
	_     [64]byte // no false sharing between adjacent tiles' deltas
}

// schedule queues a delivery `delay` cycles in the future (>= 1):
// same-tile deliveries go straight into the tile's own ring;
// cross-tile deliveries are staged for the destination tile to drain
// next cycle, which the delay bound makes always in time.
func (t *tile) schedule(delay int, ev event) {
	if ev.pkt != nil {
		t.ctr.flyFlits++
	}
	slot := t.slot + max(delay, 1)
	if slot >= len(t.flits) {
		slot -= len(t.flits)
	}
	if dst := t.net.tileOf[ev.router]; dst != t.id {
		t.net.stage.At(par.WriteParity(t.net.now), t.id, dst).S.Push(stagedEvent{slot: int32(slot), ev: ev})
		return
	}
	t.enqueue(slot, ev)
}

// enqueue files an event under its kind in ring slot `slot`.
func (t *tile) enqueue(slot int, ev event) {
	if ev.pkt == nil {
		t.credits[slot] = append(t.credits[slot], creditEv{ev.router, ev.vc})
	} else {
		t.flits[slot] = append(t.flits[slot], ev)
	}
}

// Step executes the tile's compute phase for the current cycle:
// drain staged cross-tile events (fixed source order), deliver the
// tile rings' due slot, inject from the tile's NIs, tick the tile's
// awake routers. Everything it touches is owned by this tile this
// cycle. The name is one simlint's hot-path analyzers root at: the
// dispatch reaches it through a prebound function value their call
// graph cannot follow.
func (t *tile) Step() {
	n := t.net
	if t.slot++; t.slot == len(t.flits) { // every cycle steps every tile: slot == now mod len
		t.slot = 0
	}
	parity := par.DrainParity(n.now)
	for src := 0; src < n.stage.Parts(); src++ {
		sb := n.stage.At(parity, src, t.id)
		for _, se := range sb.S.Items() {
			t.enqueue(int(se.slot), se.ev)
		}
		sb.S.Reset()
	}
	flits := t.flits[t.slot]
	t.ctr.flyFlits -= len(flits)
	for _, ev := range flits {
		n.Routers[ev.router].pushFlit(int(ev.vc), Flit{Pkt: ev.pkt, Seq: int(ev.seq)})
	}
	t.flits[t.slot] = flits[:0]
	for _, ev := range t.credits[t.slot] {
		n.Routers[ev.router].addCredit(int(ev.vc), 1)
	}
	t.credits[t.slot] = t.credits[t.slot][:0]
	for _, node := range t.nodes {
		if n.injBusy[node] {
			if ni := n.NIs[node]; ni.injActive() {
				ni.tickInject()
			} else {
				n.injBusy[node] = false
			}
		}
	}
	// Under HARE every router, asleep or not, decays its congestion
	// estimate; a router's estimate reads only its own credits, which no
	// other router's tick writes, so estimating first changes nothing.
	if n.hare {
		for _, r := range t.routers {
			r.updateEWMA()
		}
	}
	for w, word := range t.awake {
		if n.DebugChecks { // tick the sleepers too: they must make no progress
			word = ^uint64(0)
		}
		for ; word != 0; word &= word - 1 {
			if i := w<<6 + bits.TrailingZeros64(word); i < len(t.routers) {
				t.routers[i].tick()
			}
		}
	}
}

// SetParallel partitions the network into min(workers, routers) tiles
// whose compute sections run on the given pool; a nil pool stands for
// the inline pool of size 1. It must be called before the first cycle
// (the rings and staging buffers assume no traffic is in flight), and
// with workers <= pool.Size(). Results do not depend on the partition;
// see the comment at the top of this file.
func (n *Network) SetParallel(pool *par.Pool, workers int) {
	if n.now != 0 {
		panic("noc: SetParallel after the first tick")
	}
	if pool == nil {
		pool = par.NewPool(1)
	}
	if workers > pool.Size() {
		panic(fmt.Sprintf("noc: SetParallel(%d) exceeds pool size %d", workers, pool.Size()))
	}
	nt := max(1, min(workers, len(n.Routers)))
	n.pool = pool
	n.tileOf = make([]int, len(n.Routers))
	n.tiles = make([]*tile, nt)
	bounds := par.Cuts(len(n.Routers), nt, nil)
	for i := range n.tiles {
		t := &tile{
			net:     n,
			id:      i,
			routers: n.Routers[bounds[i]:bounds[i+1]],
			flits:   make([][]event, n.hopDelay+2),
			credits: make([][]creditEv, n.hopDelay+2),
		}
		// A whole cache line, so that neighbouring tiles' sets never share one.
		t.awake = make([]uint64, (len(t.routers)+63)/64, max(8, (len(t.routers)+63)/64))
		for li, r := range t.routers {
			n.tileOf[r.ID] = i
			r.tl = t
			r.ctr = &t.ctr
			r.awakeWord, r.awakeBit = &t.awake[li>>6], bit(li)
			if r.buffered > 0 {
				r.wake()
			}
		}
		n.tiles[i] = t
	}
	for _, ni := range n.NIs {
		t := n.tiles[n.tileOf[ni.router]]
		t.nodes = append(t.nodes, int32(ni.Node))
		ni.ctr = &t.ctr
	}
	n.stage.Init(nt)
	n.sectionFn = n.ComputeSection
}

// Parallel returns the number of tiles the network is partitioned into.
func (n *Network) Parallel() int { return len(n.tiles) }

// BeginTick opens a cycle: it advances the clock and, unless holdEnq
// is set, the injection stamp. The system cycle holds the reply
// network's enqNow at the previous cycle until the request network
// has committed, so that request-ejection handlers enqueue replies as
// if the reply network had not ticked yet (see ReleaseEnq). The hold
// also snapshots every NI's injection-buffer occupancy: the handlers
// running during the hold logically precede this network's tick, so
// capacity freed by this cycle's compute phase (streams completing)
// must stay invisible to them (see NI.occupancy).
func (n *Network) BeginTick(holdEnq bool) {
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

// ComputeSection runs worker w's share of the compute phase: tiles w,
// w+P, w+2P, ... (P = pool size; with the usual tile count <= P that
// is at most one tile). It must only be called between BeginTick and
// CommitTick, from a dispatch that runs every worker exactly once.
func (n *Network) ComputeSection(worker int) {
	for i := worker; i < len(n.tiles); i += n.pool.Size() {
		n.tiles[i].Step()
	}
}

// ReleaseEnq advances the injection stamp to the current cycle and
// drops the occupancy snapshot, ending the hold a BeginTick(true)
// opened.
func (n *Network) ReleaseEnq() {
	n.enqNow = n.now
	n.enqHeld = false
}

// CommitTick runs the commit phase: fold each tile's statistics delta
// in fixed tile order, then eject packets in node order.
func (n *Network) CommitTick() {
	for _, t := range n.tiles {
		n.ctr.add(&t.ctr)
		t.ctr = netCounters{}
	}
	for node, busy := range n.ejBusy {
		if busy {
			if ni := n.NIs[node]; ni.ejActive() {
				ni.tickEject()
			} else {
				n.ejBusy[node] = false
			}
		}
	}
}

// forEachPending invokes fn for every scheduled-but-undelivered event:
// every tile's rings and both parities of the staging buffers (events
// staged on the last cycle sit undrained until their destination
// tile's next compute phase). Quiet and the credit invariant check use
// it so they stay exact at every partition size.
func (n *Network) forEachPending(fn func(event)) {
	for _, t := range n.tiles {
		for s := range t.flits {
			for _, ev := range t.flits[s] {
				fn(ev)
			}
			for _, c := range t.credits[s] {
				fn(event{router: c.router, vc: c.vc})
			}
		}
	}
	n.stage.Each(func(se stagedEvent) { fn(se.ev) })
}

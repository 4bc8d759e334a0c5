package noc

import (
	"fmt"
	"math/bits"

	"delrep/internal/fifo"
)

// vcBuf is the input buffer state of one virtual channel: a fixed-
// capacity flit ring (sized to bufDepth — credits bound occupancy)
// plus the routing/allocation state of the packet currently at its
// front. Routing candidates are folded into a per-(port,vc) claimed
// bitmap so VC allocation tests membership with one bit probe instead
// of a linear candidate scan.
type vcBuf struct {
	q       fifo.Ring[Flit]
	mask    []uint64 // bit (port*numVCs + vc) set: candidate output VC
	routed  bool     // route computed for the current head packet
	outPort int
	outVC   int
}

// allows reports whether output (port, vc) — encoded as a flat bit
// index — is a routing candidate for the buffered head packet.
func (b *vcBuf) allows(bit int) bool {
	return b.mask[bit>>6]&(1<<(uint(bit)&63)) != 0
}

// clearRoute drops the head packet's routing state (tail departed).
func (b *vcBuf) clearRoute() {
	for i := range b.mask {
		b.mask[i] = 0
	}
	b.routed = false
}

// outPort is the output side of a router port: per-VC downstream
// credits, per-VC wormhole ownership, and the attached link or NI.
// credits and owner are views into the router's flat per-output-VC
// arrays (see Router.credits).
type outPort struct {
	credits   []int
	owner     []int32 // owner key (inPort<<8|inVC) holding the VC, -1 free
	link      *wire   // inter-router connection (nil otherwise)
	eject     *NI     // local ejection target (nil otherwise)
	connected bool    // link or eject present
	sent      int64   // flits transferred (utilization statistic)
}

// wire records where an output port's flits are delivered.
type wire struct {
	to     int // destination router
	toPort int
}

// feeder records where an input port's flits come from, for credit return.
type feeder struct {
	r    int
	port int
	ok   bool // false for local (NI-fed) or unconnected inputs
}

const ownerFree = int32(-1)

func ownerKey(port, vc int) int32 { return int32(port<<8 | vc) }

// Router is an input-queued virtual-channel router with credit-based
// wormhole flow control, per-class VC ranges, and separable switch
// allocation with CPU-priority arbitration (a one-iteration
// iSLIP-style allocator with rotating pointers).
//
// The switch-allocation input-port pointer is not stored: it advances
// exactly once per network cycle since construction, so it is
// recomputed from the cycle count. That keeps it bit-identical even
// when idle routers skip their tick entirely (see tile.Step).
type Router struct {
	net    *Network
	tl     *tile        // owning tile: schedules this router's deliveries
	ctr    *netCounters // statistics sink: the owning tile's delta
	ID     int
	nports int
	// inFlat is the contiguous backing store for all input VC buffers,
	// indexed port*numVCs+vc; in[p] is a subslice view of it. The
	// allocator inner loops index inFlat directly so a probe is one
	// bounds-checked load instead of a slice-of-slice chase.
	inFlat []vcBuf
	in     [][]vcBuf
	inFrom []feeder
	out    []outPort
	// credits and owner back every out[p].credits / out[p].owner,
	// indexed port*numVCs+vc — the same flat bit index the candidate
	// masks use, so VC allocation filters a requested output VC with two
	// loads. Unconnected ports keep zero credits forever.
	credits []int
	owner   []int32

	saInPtr  []int // per input port: rotating VC pointer
	vaOutPtr []int // per output port: rotating grant pointer (VC allocation)

	// Scratch buffers reused every tick (allocated once here, never
	// on the tick path).
	inputUsed  []bool
	outputUsed []bool
	candBuf    []Candidate
	// headPrio caches, per input VC (indexed port*numVCs+vc), the
	// priority of an arbitration-eligible head flit, or -1. Both
	// allocators classify heads in a single scan and then arbitrate
	// over this byte array, instead of re-dereferencing ring fronts and
	// packet priorities in their rotating inner loops.
	headPrio []int8
	// reqMask is, per priority, the union of the candidate masks of the
	// heads waiting for an output VC this tick: VC allocation visits
	// only output VCs somebody requests.
	reqMask [3][]uint64

	// dormant is set by a tick that changed nothing (no route computed,
	// no VC granted, no flit traversed). Such a tick would repeat
	// identically until a flit arrives or a credit returns — the
	// rotating pointers move only on grants, and the one cycle-derived
	// input, the switch-allocation port order, only orders candidates
	// that all fail — so the router is skipped until pushFlit or
	// addCredit wakes it. With Network.DebugChecks a dormant router is
	// ticked anyway and must make no progress.
	dormant bool

	// buffered counts flits across all input VC rings; it drives the
	// active-set scheduler and the O(1) BufferedFlits/Quiet paths.
	buffered int

	// Adaptive routing state (see routing.go).
	foot map[int]int
	ewma []float64
}

func newRouter(net *Network, id, nports, numVCs, bufDepth int) *Router {
	r := &Router{
		net:        net,
		ID:         id,
		nports:     nports,
		in:         make([][]vcBuf, nports),
		inFrom:     make([]feeder, nports),
		out:        make([]outPort, nports),
		saInPtr:    make([]int, nports),
		vaOutPtr:   make([]int, nports),
		inputUsed:  make([]bool, nports),
		outputUsed: make([]bool, nports),
		candBuf:    make([]Candidate, 0, 4),
		headPrio:   make([]int8, nports*numVCs),
		credits:    make([]int, nports*numVCs),
		owner:      make([]int32, nports*numVCs),
		ewma:       make([]float64, nports),
	}
	maskWords := (nports*numVCs + 63) / 64
	for i := range r.reqMask {
		r.reqMask[i] = make([]uint64, maskWords)
	}
	for i := range r.owner {
		r.owner[i] = ownerFree
	}
	r.inFlat = make([]vcBuf, nports*numVCs)
	for p := 0; p < nports; p++ {
		r.in[p] = r.inFlat[p*numVCs : (p+1)*numVCs : (p+1)*numVCs]
		for v := 0; v < numVCs; v++ {
			b := &r.in[p][v]
			b.q.Init(bufDepth)
			b.mask = make([]uint64, maskWords)
			b.outPort, b.outVC = -1, -1
		}
		r.out[p] = outPort{
			credits: r.credits[p*numVCs : (p+1)*numVCs : (p+1)*numVCs],
			owner:   r.owner[p*numVCs : (p+1)*numVCs : (p+1)*numVCs],
		}
	}
	return r
}

// pushFlit appends a flit to input VC (port, vc), maintaining the
// router and network activity counters. All buffer insertions (link
// deliveries and local NI injection) go through here so the counters
// that gate idle routers cannot drift from the rings.
func (r *Router) pushFlit(port, vc int, f Flit) {
	r.in[port][vc].q.PushBack(f)
	r.buffered++
	r.ctr.bufFlits++
	r.dormant = false
}

// addCredit returns n credits to output VC (port, vc). Every credit
// return — link credit events and NI ejection — goes through here so a
// dormant router cannot miss the event that unblocks it.
func (r *Router) addCredit(port, vc, n int) {
	r.out[port].credits[vc] += n
	r.dormant = false
}

// acceptFlit places an arriving flit into an input VC buffer. Credits
// guarantee space; a violation indicates a flow-control bug.
func (r *Router) acceptFlit(port, vc int, f Flit) {
	if r.in[port][vc].q.Len() >= r.net.bufDepth {
		panic("noc: input buffer overflow (credit accounting bug)")
	}
	if f.Pkt.Trace != nil && f.Head() {
		f.Pkt.Trace.arrive(r.ID, r.net.now)
	}
	r.pushFlit(port, vc, f)
}

// tick runs one router cycle: route computation and VC allocation for
// waiting heads, then separable switch allocation, then switch/link
// traversal for the winners.
func (r *Router) tick() {
	if r.net.hare {
		r.updateEWMA()
	}
	if r.buffered == 0 || r.dormant && !r.net.DebugChecks {
		return
	}
	progress := r.allocateVCs()
	if r.switchAllocAndTraverse() {
		progress = true
	}
	if progress && r.dormant {
		panic(fmt.Sprintf("noc: dormant router %d made progress at cycle %d", r.ID, r.net.now))
	}
	r.dormant = !progress
}

// allocateVCs performs route computation for new heads, then VC
// allocation with output-side round-robin arbitration: each free output
// VC grants to the next requesting input VC past the output port's
// rotating pointer. Higher priorities allocate first. Input-side
// iteration orders (fixed or cycle-stepped) are not used because they
// let persistent flows resonance-lock the allocator and starve traffic
// turning in from other dimensions at merge routers. It reports whether
// any route was computed or VC granted.
func (r *Router) allocateVCs() bool {
	numVCs := r.net.numVCs
	// Single classification pass: route any new head, then record the
	// priority of every VC still waiting for an output and fold its
	// candidate mask into that priority's request mask. Routing one VC
	// touches only that VC's own mask/routed state, so classifying as
	// we go sees the same values as a separate counting pass would.
	var waiting [3]int
	headPrio := r.headPrio
	progress := false
	for _, req := range r.reqMask {
		clear(req)
	}
	for idx := range r.inFlat {
		b := &r.inFlat[idx]
		if b.q.Len() == 0 || b.outPort >= 0 {
			headPrio[idx] = -1
			continue
		}
		head := b.q.Front()
		if !b.routed {
			if !head.Head() {
				panic("noc: body flit at VC front without allocated route")
			}
			cands := r.net.topo.Route(r.net, r.ID, head.Pkt, r.candBuf[:0])
			for _, c := range cands {
				for vc := c.VCLo; vc <= c.VCHi; vc++ {
					bit := c.Port*numVCs + vc
					b.mask[bit>>6] |= 1 << (uint(bit) & 63)
				}
			}
			b.routed = true
			r.candBuf = cands[:0] // keep a grown buffer for reuse
			progress = true
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
		// Visit, in (port, vc) order, the output VCs that are requested
		// at this priority, free and credited; any other output VC could
		// not grant. A request bit left behind by a head granted earlier
		// in this pass finds no requester and grants nothing.
		granted := 0
	outputs:
		for w, word := range r.reqMask[prio] {
			for ; word != 0; word &= word - 1 {
				bit := w<<6 + bits.TrailingZeros64(word)
				if r.owner[bit] != ownerFree || r.credits[bit] <= 0 {
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
					r.owner[bit] = ownerKey(idx/numVCs, idx%numVCs)
					b.outPort = op
					b.outVC = bit - op*numVCs
					headPrio[idx] = -1 // granted: no longer waiting
					if pkt := b.q.Front().Pkt; pkt.Trace != nil {
						pkt.Trace.vcAlloc(r.ID, r.net.now)
					}
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
		if granted > 0 {
			progress = true
		}
	}
	return progress
}

// switchAllocAndTraverse picks at most one flit per input port and per
// output port (separable allocation, priority classes first, rotating
// pointers for fairness within a class) and forwards the winners. It
// reports whether any flit traversed.
func (r *Router) switchAllocAndTraverse() bool {
	// Classify sendable heads once: a head is sendable when it holds an
	// output VC with a credit. Only the VC's own traversal spends that
	// credit (wormhole ownership), a grant only mutates the granted VC
	// (popped and possibly released), and inputUsed masks that VC's
	// whole port for the rest of the allocation, so the snapshot stays
	// valid across the priority passes; output contention is still
	// checked live in the loop.
	numVCs := r.net.numVCs
	headPrio := r.headPrio
	var present [3]int
	for idx := range r.inFlat {
		b := &r.inFlat[idx]
		if b.q.Len() == 0 || b.outPort < 0 || r.credits[b.outPort*numVCs+b.outVC] <= 0 {
			headPrio[idx] = -1
			continue
		}
		prio := b.q.Front().Pkt.Prio
		headPrio[idx] = int8(prio)
		present[prio]++
	}
	if present == [3]int{} {
		return false
	}
	inputUsed, outputUsed := r.inputUsed, r.outputUsed
	for i := range inputUsed {
		inputUsed[i] = false
		outputUsed[i] = false
	}
	// The historical saPortPtr advanced by one every cycle regardless
	// of traffic; derive it from the cycle count so skipped idle ticks
	// cannot desynchronise it.
	base := int((r.net.now - 1) % int64(r.nports))
	traversed := false
	for prio := int(PrioCPU); prio >= int(PrioGPU); prio-- {
		if present[prio] == 0 {
			continue
		}
		for i := 0; i < r.nports; i++ {
			p := base + i
			if p >= r.nports {
				p -= r.nports
			}
			if inputUsed[p] {
				continue
			}
			nvc := numVCs
			pv := p * numVCs
			for j := 0; j < nvc; j++ {
				v := r.saInPtr[p] + j
				if v >= nvc {
					v -= nvc
				}
				if int(headPrio[pv+v]) != prio {
					continue
				}
				b := &r.inFlat[pv+v]
				if outputUsed[b.outPort] {
					continue
				}
				outPort := b.outPort
				r.traverse(p, v, b)
				traversed = true
				inputUsed[p] = true
				outputUsed[outPort] = true
				r.saInPtr[p] = v + 1
				if r.saInPtr[p] == nvc {
					r.saInPtr[p] = 0
				}
				break
			}
		}
	}
	return traversed
}

// traverse moves the front flit of input VC (p, v) through the crossbar
// onto its allocated output, returning a credit upstream and releasing
// the wormhole channel on tails. The caller has verified eligibility.
func (r *Router) traverse(p, v int, b *vcBuf) {
	f := b.q.PopFront()
	r.buffered--
	r.ctr.bufFlits--
	op := &r.out[b.outPort]
	op.sent++
	r.ctr.flitHops++
	// Wormhole routing sends every flit of a packet over the head's
	// path, so the per-flit hop count is charged in one step when the
	// head traverses. This keeps the packet untouched during body/tail
	// traversals, which may run on another tile while the head is
	// already being processed downstream; the final value is identical.
	if f.Head() {
		f.Pkt.Hops += f.Pkt.SizeFlits
	}
	if f.Pkt.Trace != nil {
		if f.Head() {
			f.Pkt.Trace.depart(r.ID, r.net.now)
		}
		if f.Tail() {
			f.Pkt.Trace.tailDepart(r.ID, r.net.now)
		}
	}

	if op.link != nil {
		op.credits[b.outVC]--
		r.tl.schedule(r.net.hopDelay, event{
			kind: evFlit, router: op.link.to, port: op.link.toPort, vc: b.outVC, flit: f,
		})
	} else if op.eject != nil {
		op.credits[b.outVC]--
		op.eject.accept(f, b.outVC)
	}

	// Return a credit to whoever feeds this input port.
	if fd := r.inFrom[p]; fd.ok {
		r.tl.schedule(r.net.cfg.LinkDelay, event{
			kind: evCredit, router: fd.r, port: fd.port, vc: v,
		})
	}

	if f.Tail() {
		op.owner[b.outVC] = ownerFree
		b.outPort, b.outVC = -1, -1
		b.clearRoute()
	}
}

// BufferedFlits returns the number of flits currently buffered at the
// router (for invariant checks and drain detection). It reads the
// maintained counter; bufferedScan recomputes it from the rings.
func (r *Router) BufferedFlits() int { return r.buffered }

// bufferedScan recounts buffered flits from the VC rings — the
// debug-mode cross-check for the maintained counter.
func (r *Router) bufferedScan() int {
	n := 0
	for p := range r.in {
		for v := range r.in[p] {
			n += r.in[p][v].q.Len()
		}
	}
	return n
}

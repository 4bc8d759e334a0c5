package noc

import (
	"fmt"
	"math/bits"
)

// port is one router port: where its output side delivers (a link to a
// downstream router, or the local NI) and where its input side is fed
// from (for credit return). The per-VC credits and wormhole ownership of
// the output side live in the router's flat vcState records.
type port struct {
	to, toBase     int32 // output link: downstream router (-1 none) and the flat index of VC 0 of its input port
	from, fromBase int32 // input link: upstream router (-1 NI-fed or unconnected) and VC 0 of its output port
	eject          *NI   // local ejection target (nil otherwise)
	sent           int64 // flits transferred (utilization statistic)
}

const ownerFree = int32(-1)

// vcState is the scalar state of flat VC index i = port*numVCs + vc,
// which names both an input VC buffer of the router and, on the output
// side, a downstream VC.
type vcState struct {
	head, qlen int32 // input ring: position of the front flit, flits buffered
	outVC      int32 // output VC the packet at the input ring's front holds, -1 none
	credits    int32 // output VC: downstream credits (unconnected ports keep zero forever)
	owner      int32 // output VC: the input VC holding it, or ownerFree
	port       int32 // i / numVCs, sparing the hot paths a division
}

// Router is an input-queued virtual-channel router with credit-based
// wormhole flow control, per-class VC ranges, and separable switch
// allocation with CPU-priority arbitration (a one-iteration
// iSLIP-style allocator with rotating pointers).
//
// The switch-allocation input-port pointer is not stored: it advances
// exactly once per network cycle since construction, so it is
// recomputed from the cycle count. That keeps it bit-identical even
// when sleeping routers skip their tick entirely (see tile.Step).
//
// All per-VC state is flat — flit slots, vcState records, and words
// with one bit per flat index (Go cannot mix pointer and scalar arrays
// in one allocation) — and a tick costs what changed, not
// nports×numVCs: the allocators walk the set bits of the state words,
// which are written only at the four mutation points (pushFlit,
// traverse, the VC grant, addCredit/initCredits) and recounted every
// tick under Network.DebugChecks (recount).
type Router struct {
	net    *Network
	tl     *tile        // owning tile: schedules this router's deliveries
	ctr    *netCounters // statistics sink: the owning tile's delta
	ID     int
	nports int
	numVCs int // == net.numVCs
	depth  int // == net.bufDepth, the ring capacity of every input VC
	ports  []port

	vc    []vcState
	flits []Flit // input VC i's ring is flits[i*depth:(i+1)*depth]
	// mask[i*W:(i+1)*W] (W = len(occ)) is the candidate output-VC set of
	// the routed head of input VC i, folded once at route time.
	mask []uint64

	// State words (DESIGN.md §9 tabulates who sets and clears each and
	// the skipped work it licenses). Input side: occ, ring non-empty;
	// held, owns an output VC; ready, which also holds a credit; pri[p],
	// route computed for the packet at the front and its priority is p
	// (the allocators never chase ring → flit → packet). Output side:
	// avail, free ∧ credited.
	occ, held, ready, avail []uint64
	pri                     [3][]uint64

	saInPtr  []int32 // per input port: rotating VC pointer
	vaOutPtr []int32 // per output port: rotating grant pointer (VC allocation)

	// Per-tick scratch, from the word slab. req[p]: union of the
	// candidate masks of the priority-p heads waiting for an output VC.
	// send: sendable input VCs of the priority being switch-allocated.
	// inUsed/outUsed: ports matched by this tick's switch allocation.
	req                   [3][]uint64
	send                  []uint64
	used, inUsed, outUsed []uint64
	candBuf               []Candidate

	// awakeWord/awakeBit address this router's bit in its tile's awake
	// set. A tick that changed nothing (no route computed, no VC
	// granted, no flit traversed) would repeat identically until a flit
	// arrives or a credit returns — the rotating pointers move only on
	// grants, and the one cycle-derived input, the switch-allocation
	// port order, only orders candidates that all fail — so it clears
	// the bit and the router sleeps until pushFlit or addCredit sets it.
	// With Network.DebugChecks a sleeping router is ticked anyway and
	// must make no progress.
	awakeWord *uint64
	awakeBit  uint64

	// buffered counts flits across all input VC rings; it drives the
	// O(1) BufferedFlits/Quiet paths.
	buffered int

	// Adaptive routing state (see routing.go).
	foot map[int]int
	ewma []float64
}

func newRouter(net *Network, id, nports, numVCs, bufDepth int) *Router {
	n := nports * numVCs
	w := (n + 63) / 64
	pw := (nports + 63) / 64
	r := &Router{
		net: net, ID: id, nports: nports, numVCs: numVCs, depth: bufDepth,
		ports:   make([]port, nports),
		vc:      make([]vcState, n),
		flits:   make([]Flit, n*bufDepth),
		candBuf: make([]Candidate, 0, 4),
		ewma:    make([]float64, nports),
	}
	r.saInPtr, r.vaOutPtr = make([]int32, nports), make([]int32, nports)
	words := make([]uint64, n*w+11*w+2*pw)
	carve := func(k int) []uint64 { s := words[:k:k]; words = words[k:]; return s }
	r.occ, r.held, r.ready, r.avail, r.send = carve(w), carve(w), carve(w), carve(w), carve(w)
	for p := range r.pri {
		r.pri[p], r.req[p] = carve(w), carve(w)
	}
	r.used, r.mask = carve(2*pw), carve(n*w)
	r.inUsed, r.outUsed = r.used[:pw], r.used[pw:]
	for i := range r.vc {
		r.vc[i] = vcState{outVC: -1, owner: ownerFree, port: int32(i / numVCs)}
	}
	for p := range r.ports {
		r.ports[p].to, r.ports[p].from = -1, -1
	}
	return r
}

func bit(i int) uint64 { return 1 << (uint(i) & 63) }

// field extracts the n (<= 64) bits starting at bit lo of a word set.
func field(ws []uint64, lo, n int) uint64 {
	w, s := lo>>6, uint(lo)&63
	f := ws[w] >> s
	if s+uint(n) > 64 {
		f |= ws[w+1] << (64 - s)
	}
	return f & (1<<uint(n) - 1)
}

// vcLen returns the number of flits buffered in input VC i.
func (r *Router) vcLen(i int) int { return int(r.vc[i].qlen) }

// front returns the flit at the front of the non-empty input VC i.
func (r *Router) front(i int) *Flit { return &r.flits[i*r.depth+int(r.vc[i].head)] }

// candidates returns the candidate output-VC mask of input VC i.
func (r *Router) candidates(i int) []uint64 { return r.mask[i*len(r.occ) : (i+1)*len(r.occ)] }

// wake puts the router into its tile's awake set.
func (r *Router) wake() { *r.awakeWord |= r.awakeBit }

// pushFlit appends a flit to input VC i, maintaining occ, the router
// and network activity counters and the awake set. All buffer
// insertions (link deliveries and local NI injection) go through here
// so the words that gate skipped work cannot drift from the rings.
// Credits guarantee space; a violation indicates a flow-control bug.
func (r *Router) pushFlit(i int, f Flit) {
	v := &r.vc[i]
	if int(v.qlen) >= r.depth {
		panic("noc: input buffer overflow (credit accounting bug)")
	}
	pos := int(v.head + v.qlen)
	if pos >= r.depth {
		pos -= r.depth
	}
	if f.Head() && f.Pkt.Trace != nil {
		f.Pkt.Trace.arrive(r.ID, r.net.now)
	}
	r.flits[i*r.depth+pos] = f
	v.qlen++
	r.occ[i>>6] |= bit(i)
	r.buffered++
	r.ctr.bufFlits++
	r.wake()
}

// addCredit returns n credits to output VC o. Every credit return —
// link credit events and NI ejection — goes through here so avail and
// ready track the credits and a sleeping router cannot miss the event
// that unblocks it.
func (r *Router) addCredit(o, n int) {
	v := &r.vc[o]
	v.credits += int32(n)
	if v.owner == ownerFree {
		r.avail[o>>6] |= bit(o)
	} else {
		r.ready[v.owner>>6] |= bit(int(v.owner))
	}
	r.wake()
}

// initCredits gives a newly wired output port n credits per (free) VC.
func (r *Router) initCredits(port, n int) {
	for o := port * r.numVCs; o < (port+1)*r.numVCs; o++ {
		r.vc[o].credits = int32(n)
		r.avail[o>>6] |= bit(o)
	}
}

// tick runs one router cycle: route computation and VC allocation for
// waiting heads, then separable switch allocation and switch/link
// traversal for the winners. tile.Step ticks the awake routers.
func (r *Router) tick() {
	asleep := false
	if r.net.DebugChecks {
		r.recount()
		asleep = *r.awakeWord&r.awakeBit == 0
	}
	progress := false
	if r.buffered > 0 {
		progress = r.allocateVCs()
		if r.switchAllocAndTraverse() {
			progress = true
		}
	}
	if progress && asleep {
		panic(fmt.Sprintf("noc: dormant router %d made progress at cycle %d", r.ID, r.net.now))
	}
	if !progress {
		*r.awakeWord &^= r.awakeBit
	}
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
	// Classify the waiting heads (occ &^ held): route the new ones in
	// ascending index order, then fold every waiting head's candidate
	// mask into its priority's request mask. Routing one VC touches only
	// that VC's own state, so routing first sees the same values as
	// routing interleaved with the folding would.
	var waiting [3]int
	progress := false
	for w := range r.occ {
		wait := r.occ[w] &^ r.held[w]
		if wait == 0 {
			continue
		}
		for m := wait &^ (r.pri[0][w] | r.pri[1][w] | r.pri[2][w]); m != 0; m &= m - 1 {
			r.route(w<<6 + bits.TrailingZeros64(m))
			progress = true
		}
		for p, req := range r.req {
			for m := wait & r.pri[p][w]; m != 0; m &= m - 1 {
				if waiting[p]++; waiting[p] == 1 {
					clear(req)
				}
				for k, c := range r.candidates(w<<6 + bits.TrailingZeros64(m)) {
					req[k] |= c
				}
			}
		}
	}
	for prio := int(PrioCPU); prio >= int(PrioGPU); prio-- {
		if waiting[prio] == 0 {
			continue
		}
		// Visit, in (port, vc) order, the output VCs that are requested
		// at this priority and available (free ∧ credited); any other
		// output VC could not grant, so when the two sets are disjoint —
		// the usual case on a clogged chip — the pass touches nothing. A
		// grant only clears its own avail bit, so intersecting a word at
		// a time sees what a per-bit probe would. A request bit left
		// behind by a head granted earlier in this pass finds no
		// requester and grants nothing.
		granted := 0
	outputs:
		for w, req := range r.req[prio] {
			for m := req & r.avail[w]; m != 0; m &= m - 1 {
				o := w<<6 + bits.TrailingZeros64(m)
				ptr := &r.vaOutPtr[r.vc[o].port]
				i := r.requester(prio, o, int(*ptr))
				if i < 0 {
					continue
				}
				r.vc[o].owner = int32(i)
				r.vc[i].outVC = int32(o)
				r.avail[w] &^= bit(o)
				r.held[i>>6] |= bit(i)  // granted: no longer waiting,
				r.ready[i>>6] |= bit(i) // and o is credited
				if pkt := r.front(i).Pkt; pkt.Trace != nil {
					pkt.Trace.vcAlloc(r.ID, r.net.now)
				}
				if *ptr = int32(i) + 1; int(*ptr) == len(r.vc) {
					*ptr = 0
				}
				progress = true
				if granted++; granted == waiting[prio] {
					break outputs
				}
			}
		}
	}
	return progress
}

// route computes the routing candidates of the new head packet at the
// front of input VC i, folds them into the VC's candidate mask and
// records the packet's priority.
func (r *Router) route(i int) {
	head := r.front(i)
	if !head.Head() {
		panic("noc: body flit at VC front without allocated route")
	}
	cands := r.net.topo.Route(r.net, r.ID, head.Pkt, r.candBuf[:0])
	mask := r.candidates(i)
	for _, c := range cands {
		for o := c.Port*r.numVCs + c.VCLo; o <= c.Port*r.numVCs+c.VCHi; o++ {
			mask[o>>6] |= bit(o)
		}
	}
	r.candBuf = cands[:0] // keep a grown buffer for reuse
	r.pri[head.Pkt.Prio][i>>6] |= bit(i)
}

// requester returns the first input VC at or cyclically after index
// from whose head waits at priority prio with output VC o among its
// candidates, or -1.
func (r *Router) requester(prio, o, from int) int {
	nw := len(r.occ)
	w := from >> 6
	for n := 0; n <= nw; n++ { // the start word is visited twice: tail, then head
		m := r.occ[w] &^ r.held[w] & r.pri[prio][w]
		if n == 0 {
			m &^= bit(from) - 1
		} else if n == nw {
			m &= bit(from) - 1
		}
		for ; m != 0; m &= m - 1 {
			if i := w<<6 + bits.TrailingZeros64(m); r.candidates(i)[o>>6]&bit(o) != 0 {
				return i
			}
		}
		if w++; w == nw {
			w = 0
		}
	}
	return -1
}

// switchAllocAndTraverse picks at most one flit per input port and per
// output port (separable allocation, priority classes first, rotating
// pointers for fairness within a class) and forwards the winners. It
// reports whether any flit traversed.
func (r *Router) switchAllocAndTraverse() bool {
	// A head is sendable when it holds an output VC with a credit: occ &
	// ready. Only the VC's own traversal spends that credit (wormhole
	// ownership), a grant only mutates the granted VC (popped and
	// possibly released), and inUsed masks that VC's whole port for the
	// rest of the allocation, so the sets read at the start of each
	// priority pass stay valid through it; output contention is checked
	// live in the loop.
	some := false
	for w := range r.occ {
		some = some || r.occ[w]&r.ready[w] != 0
	}
	if !some {
		return false
	}
	clear(r.used)
	// The historical saPortPtr advanced by one every cycle regardless
	// of traffic; derive it from the cycle count so skipped ticks
	// cannot desynchronise it.
	nvc := r.numVCs
	start := int((r.net.now - 1) % int64(r.nports))
	for prio := int(PrioCPU); prio >= int(PrioGPU); prio-- {
		some = false
		for w := range r.send {
			r.send[w] = r.occ[w] & r.ready[w] & r.pri[prio][w]
			some = some || r.send[w] != 0
		}
		for k, p := 0, start; some && k < r.nports; k, p = k+1, p+1 {
			if p == r.nports {
				p = 0
			}
			// This port's sendable VCs, rotated so bit j is VC saInPtr+j.
			f, s := field(r.send, p*nvc, nvc), int(r.saInPtr[p])
			if f == 0 || r.inUsed[p>>6]&bit(p) != 0 {
				continue
			}
			for f = (f>>uint(s) | f<<uint(nvc-s)) & (1<<uint(nvc) - 1); f != 0; f &= f - 1 {
				v := s + bits.TrailingZeros64(f)
				if v >= nvc {
					v -= nvc
				}
				op := int(r.vc[r.vc[p*nvc+v].outVC].port)
				if r.outUsed[op>>6]&bit(op) != 0 {
					continue
				}
				r.traverse(p*nvc + v)
				r.inUsed[p>>6] |= bit(p)
				r.outUsed[op>>6] |= bit(op)
				if v++; v == nvc {
					v = 0
				}
				r.saInPtr[p] = int32(v)
				break
			}
		}
	}
	return true // the first sendable head visited found every port free
}

// traverse moves the front flit of input VC i through the crossbar
// onto its allocated output, returning a credit upstream and releasing
// the wormhole channel on tails. The caller has verified eligibility.
func (r *Router) traverse(i int) {
	v := &r.vc[i]
	slot := &r.flits[i*r.depth+int(v.head)]
	f := *slot
	*slot = Flit{} // do not pin the packet
	if v.head++; int(v.head) == r.depth {
		v.head = 0
	}
	if v.qlen--; v.qlen == 0 {
		r.occ[i>>6] &^= bit(i)
	}
	r.buffered--
	r.ctr.bufFlits--
	o := int(v.outVC)
	ov := &r.vc[o]
	op := &r.ports[ov.port]
	op.sent++
	r.ctr.flitHops++
	// Wormhole routing sends every flit of a packet over the head's
	// path, so the per-flit hop count is charged in one step when the
	// head traverses. This keeps the packet untouched during body/tail
	// traversals, which may run on another tile while the head is
	// already being processed downstream; the final value is identical.
	tail := f.Tail()
	if f.Head() {
		f.Pkt.Hops += f.Pkt.SizeFlits
	}
	if f.Pkt.Trace != nil {
		if f.Head() {
			f.Pkt.Trace.depart(r.ID, r.net.now)
		}
		if tail {
			f.Pkt.Trace.tailDepart(r.ID, r.net.now)
		}
	}

	outVC := o - int(ov.port)*r.numVCs
	if op.to >= 0 {
		ov.credits--
		r.tl.schedule(r.net.hopDelay, event{pkt: f.Pkt, seq: int32(f.Seq), router: op.to, vc: op.toBase + int32(outVC)})
	} else if op.eject != nil {
		ov.credits--
		op.eject.accept(f, outVC)
	}

	// Return a credit to whoever feeds this input port.
	if in := &r.ports[v.port]; in.from >= 0 {
		r.tl.schedule(r.net.cfg.LinkDelay, event{router: in.from, vc: in.fromBase + int32(i) - v.port*int32(r.numVCs)})
	}

	if tail {
		ov.owner = ownerFree
		if ov.credits > 0 {
			r.avail[o>>6] |= bit(o)
		}
		v.outVC = -1
		r.held[i>>6] &^= bit(i)
		r.ready[i>>6] &^= bit(i)
		for _, pri := range r.pri {
			pri[i>>6] &^= bit(i)
		}
		clear(r.candidates(i))
	} else if ov.credits <= 0 {
		r.ready[i>>6] &^= bit(i)
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
	for i := range r.vc {
		n += int(r.vc[i].qlen)
	}
	return n
}

// recount re-derives every state word from the rings, owner and
// credits and panics on drift — what bufferedScan is to buffered, for
// the words the allocators trust instead of scanning.
func (r *Router) recount() {
	for i := range r.vc {
		v, w, b := &r.vc[i], i>>6, bit(i)
		held, prio, nprio := v.outVC >= 0, -1, 0
		for p, pri := range r.pri {
			if pri[w]&b != 0 {
				prio, nprio = p, nprio+1
			}
		}
		routed := nprio == 1
		ok := nprio <= 1 && (routed || !held) &&
			(r.occ[w]&b != 0) == (v.qlen > 0) &&
			(r.held[w]&b != 0) == held && (!held || r.vc[v.outVC].owner == int32(i)) &&
			(r.ready[w]&b != 0) == (held && r.vc[v.outVC].credits > 0) &&
			(v.owner == ownerFree || r.vc[v.owner].outVC == int32(i)) &&
			(r.avail[w]&b != 0) == (v.owner == ownerFree && v.credits > 0) &&
			(!routed || v.qlen == 0 || prio == int(r.front(i).Pkt.Prio))
		for _, c := range r.candidates(i) {
			ok = ok && (routed || c == 0)
		}
		if !ok {
			panic(fmt.Sprintf("noc: router %d state words drifted from rings/owner/credits at VC %d, cycle %d", r.ID, i, r.net.now))
		}
	}
	if scan := r.bufferedScan(); scan != r.buffered {
		panic(fmt.Sprintf("noc: router %d buffered-flit counter drifted at cycle %d: counter=%d scan=%d", r.ID, r.net.now, r.buffered, scan))
	}
}

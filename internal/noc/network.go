package noc

import (
	"fmt"

	"delrep/internal/config"
	"delrep/internal/fifo"
	"delrep/internal/par"
	"delrep/internal/stats"
)

// Network is one physical interconnect: routers wired per the topology,
// plus one network interface per node. The baseline uses two Network
// instances (request and reply); AVCP and the virtual-network study use
// a single shared instance with per-class VC ranges.
//
// Tick runs the phased cycle of tile.go — begin, tile compute
// sections, commit — over a tile partition that always exists (one
// tile from NewNetwork on; SetParallel re-partitions). It is
// activity-gated: routers outside their tile's awake set (no buffered
// flits, or a last tick that changed nothing, see Router.awakeWord) and
// NIs with no injection/ejection work are skipped. The gating is exact —
// every piece of per-cycle state a skipped component would have touched
// is either provably unchanged when idle or stuck, or derived from the
// cycle count (router saPortPtr, NI class round-robin) — so results are
// bit-identical to ungated execution. Under HARE routing every router
// still ticks its EWMA congestion estimate (it decays per cycle), and
// only the allocators are skipped.
type Network struct {
	Label    string
	topo     Topology
	cfg      config.NoC
	numVCs   int
	bufDepth int
	hopDelay int
	hare     bool

	Routers []*Router
	NIs     []*NI
	// injBusy/ejBusy[node]: the NI may have injection/ejection work (NI.injActive).
	injBusy, ejBusy []bool

	now int64

	// enqNow is the cycle stamped onto packets at Inject. Standalone it
	// always equals now; the system cycle computes both networks before
	// the request network commits, so the reply network holds enqNow
	// one cycle back until then (see BeginTick) and Enqueued stamps —
	// and everything derived from them: PktLat, delegation wait — read
	// as if the request network had ticked first.
	enqNow int64

	// enqHeld is true while enqNow is held back: during that window the
	// NIs also serve capacity queries (CanInject/InjLen) from the
	// occupancy snapshot taken when the hold began, because this
	// network's compute phase has already run but the handlers now
	// executing logically precede it (see NI.occupancy).
	enqHeld bool

	// ctr is the canonical statistics block: activity counters
	// (buffered flits across all router input rings, in-flight flit
	// events in the delay rings — Quiet derives from these in O(#NIs)
	// instead of rescanning every buffer) plus the measurement
	// counters. Routers and NIs write their tile's delta, which the
	// commit phase folds in here each cycle (see tile.go).
	ctr netCounters

	// The tile partition (see tile.go): at least one tile, whose delay
	// rings are the network's only delay rings.
	pool      *par.Pool // runs the compute sections; size 1 runs them inline
	tiles     []*tile
	tileOf    []int                   // router -> owning tile
	stage     par.Matrix[stagedEvent] // cross-tile staging, double-buffered by cycle parity
	sectionFn func(int)               // prebound ComputeSection, so a dispatch does not allocate

	// DebugChecks enables the slow cross-checks: Quiet and
	// CheckCreditInvariant re-derive the activity counters by full
	// scan and panic/error on divergence, and dormant routers are
	// ticked anyway and panic if they make progress. Tests switch this
	// on.
	DebugChecks bool

	// TraceSink, when non-nil, receives every ejected packet that
	// carries a Trace record (set by the observability layer). It must
	// only record — the tick path stays free of I/O and side effects
	// on simulated state.
	TraceSink func(*Packet)

	// Statistics (reset at the end of warmup). The flit counters live
	// in ctr; PktLat stays here because float samplers are
	// order-sensitive and only ever updated from the commit phase
	// (tickEject).
	PktLat   [3]stats.Sampler // per priority
	measured int64            // cycles since last ResetStats
}

// Params bundles the NI buffer capacities used at construction.
type Params struct {
	InjCapCore int // injection queue depth (packets) at CPU/GPU nodes
	InjCapMem  int // injection buffer depth (packets) at memory nodes
	EjCap      int // NI per-VC ejection buffer depth (flits)
	AsmCap     int // assembled packets awaiting node acceptance
	MemNodes   map[int]bool
}

// NewNetwork builds and wires a network over the given node count.
func NewNetwork(label string, topo Topology, cfg config.NoC, nodes int, p Params) *Network {
	numVCs := cfg.VCsPerClass
	if cfg.SharedPhys {
		numVCs = cfg.ReqVCs + cfg.RepVCs
	}
	if numVCs <= 0 || numVCs > 64 { // switch allocation holds a port's VCs in one word
		panic("noc: network needs between 1 and 64 VCs")
	}
	n := &Network{
		Label:    label,
		topo:     topo,
		cfg:      cfg,
		numVCs:   numVCs,
		bufDepth: cfg.FlitsPerVC,
		hopDelay: cfg.RouterDelay + cfg.LinkDelay,
		hare:     cfg.Routing == config.RoutingHARE,
	}
	n.Routers = make([]*Router, topo.NumRouters())
	for r := range n.Routers {
		n.Routers[r] = newRouter(n, r, topo.NumPorts(r), numVCs, n.bufDepth)
	}
	// Wire inter-router links and credits.
	for r := range n.Routers {
		for port := 0; port < topo.NumPorts(r); port++ {
			peer, peerPort, ok := topo.Wire(r, port)
			if !ok {
				continue
			}
			out, in := &n.Routers[r].ports[port], &n.Routers[peer].ports[peerPort]
			out.to, out.toBase = int32(peer), int32(peerPort*numVCs)
			in.from, in.fromBase = int32(r), int32(port*numVCs)
			n.Routers[r].initCredits(port, n.bufDepth)
		}
	}
	// Attach NIs.
	n.NIs = make([]*NI, nodes)
	n.injBusy, n.ejBusy = make([]bool, nodes), make([]bool, nodes)
	for node := 0; node < nodes; node++ {
		r, port := topo.NodePort(node)
		injCap := [2]int{p.InjCapCore, p.InjCapCore}
		if p.MemNodes[node] {
			// The reply-class queue of a memory node is the paper's
			// bounded injection buffer.
			injCap[ClassReply] = p.InjCapMem
		}
		ni := &NI{
			net: n, Node: node, router: r, base: port * numVCs,
			injCap: injCap,
			ejBuf:  make([]fifo.Ring[Flit], numVCs),
			asmCap: p.AsmCap,
		}
		// Preallocate every queue to its capacity: the steady-state
		// tick path never grows them.
		ni.injQ[0] = make([]*Packet, 0, injCap[0])
		ni.injQ[1] = make([]*Packet, 0, injCap[1])
		ni.streams = make([]injStream, 0, numVCs)
		ni.asm = make([]*Packet, 0, p.AsmCap)
		for v := range ni.ejBuf {
			ni.ejBuf[v].Init(p.EjCap)
		}
		n.NIs[node] = ni
		n.Routers[r].ports[port].eject = ni
		n.Routers[r].initCredits(port, p.EjCap)
	}
	n.SetParallel(nil, 1)
	return n
}

// VCRange returns the inclusive VC range a traffic class may use.
func (n *Network) VCRange(c Class) (lo, hi int) {
	if !n.cfg.SharedPhys {
		return 0, n.numVCs - 1
	}
	if c == ClassRequest {
		return 0, n.cfg.ReqVCs - 1
	}
	return n.cfg.ReqVCs, n.cfg.ReqVCs + n.cfg.RepVCs - 1
}

// Now returns the network cycle count.
func (n *Network) Now() int64 { return n.now }

// Topology returns the network's topology.
func (n *Network) Topology() Topology { return n.topo }

// Tick advances the network one cycle on its own: begin, one dispatch
// of the tile compute sections, commit. The system cycle runs the same
// three steps itself so that it can fuse both networks' compute phases
// into one dispatch (internal/core).
func (n *Network) Tick() {
	n.BeginTick(false)
	n.pool.Run(n.sectionFn)
	n.CommitTick()
}

// ResetStats zeroes all measurement counters (end of warmup) without
// disturbing in-flight traffic.
func (n *Network) ResetStats() {
	// Tile deltas are folded into ctr every cycle, so between cycles —
	// the only place ResetStats is called — the canonical block is the
	// whole truth and the deltas are structurally zero.
	n.ctr.injFlits = [2]int64{}
	n.ctr.ejFlits = [2]int64{}
	for i := range n.PktLat {
		n.PktLat[i].Reset()
	}
	n.ctr.flitHops = 0
	n.measured = 0
	for _, r := range n.Routers {
		for p := range r.ports {
			r.ports[p].sent = 0
		}
	}
	for _, ni := range n.NIs {
		ni.EjFlitsByClass = [2]int64{}
	}
}

// FlitHops returns total flit-hop traversals since the last reset
// (the activity factor for the energy model).
func (n *Network) FlitHops() int64 { return n.ctr.flitHops }

// InjectedFlits returns flits injected for a traffic class since the
// last ResetStats.
func (n *Network) InjectedFlits(c Class) int64 { return n.ctr.injFlits[c] }

// EjectedFlits returns flits ejected for a traffic class since the
// last ResetStats.
func (n *Network) EjectedFlits(c Class) int64 { return n.ctr.ejFlits[c] }

// MeasuredCycles returns cycles since the last ResetStats.
func (n *Network) MeasuredCycles() int64 { return n.measured }

// PortUtilization returns the fraction of measured cycles that router
// r's output port carried a flit. It returns 0 before any cycle has
// been measured and for out-of-range router or port indices.
func (n *Network) PortUtilization(r, port int) float64 {
	if n.measured == 0 {
		return 0
	}
	return float64(n.PortSent(r, port)) / float64(n.measured)
}

// PortSent returns the cumulative flits transferred through router r's
// output port since the last ResetStats, or 0 for out-of-range
// indices. The observability layer differences it across windows to
// derive per-link utilization time series.
func (n *Network) PortSent(r, port int) int64 {
	if r < 0 || r >= len(n.Routers) {
		return 0
	}
	rt := n.Routers[r]
	if port < 0 || port >= len(rt.ports) {
		return 0
	}
	return rt.ports[port].sent
}

// Quiet reports whether the network holds no buffered or in-flight
// flits (used by drain tests). It reads the maintained activity
// counters; with DebugChecks set it also performs the historical full
// scan and panics if the two disagree.
func (n *Network) Quiet() bool {
	quiet := n.ctr.bufFlits == 0 && n.ctr.flyFlits == 0
	if quiet {
		for _, ni := range n.NIs {
			if ni.injActive() || ni.ejActive() {
				quiet = false
				break
			}
		}
	}
	if n.DebugChecks {
		if scan := n.quietScan(); scan != quiet {
			panic(fmt.Sprintf("noc: Quiet counter/scan divergence: counters=%v scan=%v (bufFlits=%d flyFlits=%d)",
				quiet, scan, n.ctr.bufFlits, n.ctr.flyFlits))
		}
	}
	return quiet
}

// quietScan is the full-rescan form of Quiet (debug cross-check).
func (n *Network) quietScan() bool {
	for _, r := range n.Routers {
		if r.bufferedScan() > 0 {
			return false
		}
	}
	fly := 0
	n.forEachPending(func(ev event) {
		if ev.pkt != nil {
			fly++
		}
	})
	if fly > 0 {
		return false
	}
	for _, ni := range n.NIs {
		if len(ni.injQ[0]) > 0 || len(ni.injQ[1]) > 0 || len(ni.streams) > 0 || len(ni.asm) > 0 {
			return false
		}
		for v := range ni.ejBuf {
			if ni.ejBuf[v].Len() > 0 {
				return false
			}
		}
	}
	return true
}

// CheckCreditInvariant verifies that, for every wired output VC,
// credits + downstream buffer occupancy + in-flight flits equals the
// buffer depth, and that the maintained activity counters match a
// full recount. It returns an error describing the first violation.
func (n *Network) CheckCreditInvariant() error {
	inFlight := make(map[[2]int32]int) // (router, input VC) -> flits on the wire
	credits := make(map[[2]int32]int)  // (router, output VC) -> credits on the wire
	fly := 0
	n.forEachPending(func(ev event) {
		if ev.pkt != nil {
			inFlight[[2]int32{ev.router, ev.vc}]++
			fly++
		} else {
			credits[[2]int32{ev.router, ev.vc}]++
		}
	})
	if fly != n.ctr.flyFlits {
		return fmt.Errorf("in-flight flit counter drifted: counter=%d scan=%d", n.ctr.flyFlits, fly)
	}
	buffered := 0
	for _, r := range n.Routers {
		scan := r.bufferedScan()
		if scan != r.buffered {
			return fmt.Errorf("router %d buffered-flit counter drifted: counter=%d scan=%d", r.ID, r.buffered, scan)
		}
		buffered += scan
	}
	if buffered != n.ctr.bufFlits {
		return fmt.Errorf("network buffered-flit counter drifted: counter=%d scan=%d", n.ctr.bufFlits, buffered)
	}
	for node, ni := range n.NIs {
		if ni.injActive() && !n.injBusy[node] || ni.ejActive() && !n.ejBusy[node] {
			return fmt.Errorf("NI %d has work its busy flag does not show", node)
		}
	}
	for _, r := range n.Routers {
		for p := range r.ports {
			op := &r.ports[p]
			if op.to < 0 {
				continue
			}
			for v := 0; v < n.numVCs; v++ {
				o, in := int32(p*n.numVCs+v), op.toBase+int32(v)
				occ := n.Routers[op.to].vcLen(int(in))
				fly := inFlight[[2]int32{op.to, in}]
				cred := credits[[2]int32{int32(r.ID), o}]
				total := int(r.vc[o].credits) + occ + fly + cred
				if total != n.bufDepth {
					return fmt.Errorf("credit invariant violated at router %d port %d vc %d: credits=%d occ=%d inflight=%d creditsInFlight=%d depth=%d",
						r.ID, p, v, r.vc[o].credits, occ, fly, cred, n.bufDepth)
				}
			}
		}
	}
	return nil
}

// NI returns the network interface of a node.
func (n *Network) NI(node int) *NI { return n.NIs[node] }

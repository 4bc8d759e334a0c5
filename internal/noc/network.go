package noc

import (
	"fmt"
	"math"
	"slices"

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
// Tick runs the two-step cycle of tile.go — compute, then commit — over
// the network's one tile. It is activity-gated: routers outside the
// awake set (no buffered flits, or a last tick that changed nothing,
// see Router.awakeWord) and NIs with no due injection or ejection work
// are skipped. The gating is exact — every piece of per-cycle state a
// skipped component would have touched is either provably unchanged
// when idle or stuck, or derived from the cycle count (router
// saPortPtr, NI class round-robin) — so results are bit-identical to
// ungated execution.
type Network struct {
	Label    string
	topo     Topology
	cfg      config.NoC
	numVCs   int
	bufDepth int
	hopDelay int

	Routers []*Router
	NIs     []*NI
	// injDue[node]: next cycle the NI's injection ticks (NI.nextReadyAt,
	// NI.wakeInject); ejBusy[node]: it may have ejection work (ejActive).
	injDue []int64
	ejBusy []bool

	now int64
	// saStart: (now-1) mod k per router port count k (begin advances it).
	saStart []modCounter

	// ctr is the statistics block: activity counters (buffered flits
	// across all router input rings, in-flight flit events in the delay
	// rings — Quiet derives from these in O(#NIs) instead of rescanning
	// every buffer) plus the measurement counters. Routers and NIs write
	// it directly.
	ctr netCounters

	// tile holds the delay rings and the awake set (see tile.go).
	tile tile

	// DebugChecks enables the slow cross-checks: Quiet, Commit and
	// CheckCreditInvariant re-derive the activity counters by full
	// scan and panic/error on divergence, and dormant routers and NIs
	// are ticked anyway and panic if they make progress. Tests switch
	// this on.
	DebugChecks bool

	// TraceSink, when non-nil, receives every ejected packet that
	// carries a Trace record (set by the observability layer). It must
	// only record — the tick path stays free of I/O and side effects
	// on simulated state.
	TraceSink func(*Packet)

	// Statistics (reset at the end of warmup). The flit counters live
	// in ctr; PktLat is order-sensitive and only ever updated from the
	// commit step (tickEject).
	PktLat   [3]stats.Sampler // per priority
	measured int64            // cycles since last ResetStats
}

// never is the injDue of an NI no timer wakes; a modCounter wraps at k.
const never = math.MaxInt64

type modCounter struct{ v, k int32 }

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
	}
	n.Routers = make([]*Router, topo.NumRouters())
	n.saStart = make([]modCounter, 0, len(n.Routers)) // never grows: routers point into it
	for r := range n.Routers {
		k := topo.NumPorts(r)
		n.Routers[r] = newRouter(n, r, k, numVCs, n.bufDepth)
		n.Routers[r].buildRoutes(nodes)
		c := slices.IndexFunc(n.saStart, func(c modCounter) bool { return int(c.k) == k })
		if c < 0 { // a new port count: start at (0-1) mod k
			c, n.saStart = len(n.saStart), append(n.saStart, modCounter{v: int32(k - 1), k: int32(k)})
		}
		n.Routers[r].saStart = &n.saStart[c].v
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
	n.injDue, n.ejBusy = make([]int64, nodes), make([]bool, nodes)
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
	n.tile = tile{
		flits:   make([][]event, n.hopDelay+2),
		credits: make([][]creditEv, n.hopDelay+2),
		awake:   make([]uint64, (len(n.Routers)+63)/64),
	}
	for i, r := range n.Routers {
		r.awakeWord, r.awakeBit = &n.tile.awake[i>>6], bit(i)
	}
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

// SetParallel once split the network into tiles ticked on a worker
// pool. A network is always one tile now, ticked on the caller; both
// arguments are ignored.
//
// Deprecated: kept so that callers built against the tiled tick still
// compile. It does nothing.
func (n *Network) SetParallel(*par.Pool, int) {}

// Tick advances the network one cycle: Compute, then Commit.
func (n *Network) Tick() {
	n.Compute()
	n.Commit()
}

// ResetStats zeroes all measurement counters (end of warmup) without
// disturbing in-flight traffic.
func (n *Network) ResetStats() {
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
		if ni.ejActive() && !n.ejBusy[node] {
			return fmt.Errorf("NI %d has ejection work its busy flag does not show", node)
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

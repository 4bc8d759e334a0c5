package core

import (
	"fmt"
	"sort"

	"delrep/internal/cache"
	"delrep/internal/config"
	"delrep/internal/cpu"
	"delrep/internal/gpu"
	"delrep/internal/noc"
	"delrep/internal/obs"
	"delrep/internal/stats"
	"delrep/internal/workload"
)

// System is the full simulated heterogeneous architecture: CPU cores,
// GPU cores, and memory nodes attached to request/reply networks.
type System struct {
	Cfg     config.Config
	GPUProf workload.GPUProfile
	CPUProf workload.CPUProfile

	ReqNet *noc.Network
	RepNet *noc.Network   // == ReqNet when the physical network is shared
	nets   []*noc.Network // ReqNet, then RepNet if it is another network: the tick order

	GPUs     []*GPUCore
	CPUs     []*cpu.Core
	Mems     []*MemNode
	Clusters []*Cluster

	memNodes []int // node ids of memory nodes, in order
	gpuIdx   []int // node id -> GPU index or -1
	cpuIdx   []int // node id -> CPU index or -1
	memIdx   []int // node id -> memory-node index or -1

	gpuReplyFlits int
	cpuReplyFlits int
	writeFlits    int

	cycle  int64
	warmed int64 // cycle at which stats were last reset

	// al hands out every packet and message (see pool.go).
	al alloc

	// Inter-core locality sampling (Figure 2): on a sampled subset of
	// L1 read misses, check whether any remote GPU L1 holds the line.
	loc locCounters

	// End-to-end GPU load latency by reply kind (diagnostics).
	loadLat [5]stats.Sampler

	// Per-reply-kind latency attribution sums (queueing vs transit vs
	// serialization vs delegation overhead), fed by NetAcct.
	loadBreak [5]breakAcc

	// obs, when non-nil, is the attached observability layer (see
	// AttachObserver). Strictly measurement-only.
	obs *obs.Observer

	// prof, when non-nil, accumulates per-phase wall time (see
	// profile.go). Measurement-only: Run steps the same phase methods
	// as Tick with a clock read between them.
	prof *PhaseProfile

	nextFlush int64
}

// locCounters is the inter-core locality sample block.
type locCounters struct {
	samples       int64
	hits          int64
	sharedSamples int64
	sharedHits    int64
}

// breakAcc accumulates latency-attribution sums for one reply kind.
type breakAcc struct {
	n         int64
	total     int64
	queue     int64
	xfer      int64
	ser       int64
	delegWait int64
	hops      int64
	legs      int64
	delegs    int64
}

// recordLoadBreak attributes a completed GPU load's latency across its
// network legs (the Figure-4 breakdown).
func (s *System) recordLoadBreak(kind ReplyKind, cycles int64, a *NetAcct) {
	b := &s.loadBreak[kind]
	b.n++
	b.total += cycles
	b.queue += a.Queue
	b.xfer += a.Xfer
	b.ser += a.Ser
	b.delegWait += a.DelegWait
	b.hops += int64(a.Hops)
	b.legs += int64(a.Legs)
	b.delegs += int64(a.Delegs)
}

// noteDelegated hands a stuck reply's trace over to the delegated
// request that replaces it: the stuck packet is recorded as aborted,
// and the successor inherits a trace pointing back at it.
func (s *System) noteDelegated(stuck, successor *noc.Packet) {
	if s.obs == nil || stuck.Trace == nil {
		return
	}
	s.obs.PacketDropped(stuck, "delegated", s.cycle)
	if successor.Trace == nil {
		successor.Trace = &noc.PacketTrace{}
	}
	successor.Trace.Origin = stuck.ID
}

// recordLoadLat samples the end-to-end latency of a completed GPU load.
func (s *System) recordLoadLat(kind ReplyKind, cycles int64) {
	s.loadLat[kind].Add(float64(cycles))
}

// localitySamplePeriod: every Nth L1 miss is checked against all remote
// L1s (a measurement probe only; it does not affect timing).
const localitySamplePeriod = 16

// NewSystem builds a system for the given configuration and workload
// pairing. It panics on invalid configurations (programming errors);
// use cfg.Validate for user-facing validation.
func NewSystem(cfg config.Config, gpuBench, cpuBench string) *System {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &System{
		Cfg:           cfg,
		GPUProf:       workload.GPUProfileByName(gpuBench),
		CPUProf:       workload.CPUProfileByName(cpuBench),
		gpuReplyFlits: cfg.NoC.FlitsForData(cfg.GPU.L1LineBytes),
		cpuReplyFlits: cfg.NoC.FlitsForData(cfg.CPU.L1LineBytes),
		writeFlits:    cfg.NoC.FlitsForData(cfg.GPU.L1LineBytes),
	}
	s.buildNetworks()
	s.buildNodes()
	s.prewarmLLC()
	s.nextFlush = int64(cfg.GPU.KernelCycles)
	return s
}

// prewarmLLC functionally warms the LLC with the workload footprint
// (CPU regions first, then GPU private, then the shared regions most
// likely to be re-referenced), standing in for the hundreds of
// thousands of cycles of cache warming the paper's billion-instruction
// runs perform before measurement. Core pointers are warmed too:
// private lines point at their owner, shared lines at a plausible last
// accessor within the sharing group — the steady state a long run
// reaches once every line has been read at least once.
func (s *System) prewarmLLC() {
	insert := func(line cache.Addr, aux uint32) {
		mem := s.Mems[s.memIdx[s.memNodeFor(line)]]
		mem.llc.Insert(line, aux, false)
	}
	for _, c := range s.CPUs {
		for i := 0; i < cpu.RegionLines; i++ {
			insert(cache.Addr(workload.CPUBase+uint64(c.Node)*cpu.RegionLines+uint64(i)), 0)
		}
	}
	for _, g := range s.GPUs {
		for i := 0; i < s.GPUProf.PrivLines; i++ {
			insert(workload.PrivLine(g.Idx, i), auxOf(g.Node))
		}
	}
	group := s.GPUProf.ShareGroup
	for grp := 0; grp < s.GPUProf.Groups(len(s.GPUs)); grp++ {
		for i := 0; i < s.GPUProf.SharedLines; i++ {
			owner := grp*group + i%group
			if owner >= len(s.GPUs) {
				owner = grp * group
			}
			insert(workload.SharedLine(grp, i), auxOf(s.GPUs[owner].Node))
		}
	}
}

func (s *System) topology() noc.Topology {
	l := s.Cfg.Layout
	n := s.Cfg.NoC
	switch n.Topology {
	case config.TopoMesh:
		return noc.NewMesh(l.Width, l.Height, noc.MeshPolicy{
			Alg: n.Routing, ReqOrder: n.ReqOrder, RepOrder: n.RepOrder,
		})
	case config.TopoFlattenedButterfly:
		return noc.NewFlattenedButterfly(l.Width, l.Height, n.ReqOrder, n.RepOrder)
	case config.TopoDragonfly:
		return noc.NewDragonfly(l.Nodes(), 8)
	case config.TopoCrossbar:
		return noc.NewCrossbar(l.Nodes())
	}
	panic(fmt.Sprintf("core: unknown topology %v", n.Topology))
}

func (s *System) buildNetworks() {
	l := s.Cfg.Layout
	memSet := make(map[int]bool)
	for _, id := range l.NodesOf(config.KindMem) {
		memSet[id] = true
	}
	// The per-VC ejection buffer must hold at least one complete packet,
	// or a packet larger than the buffer could never assemble (credits
	// would never return).
	maxFlits := s.gpuReplyFlits
	if s.writeFlits > maxFlits {
		maxFlits = s.writeFlits
	}
	if s.cpuReplyFlits > maxFlits {
		maxFlits = s.cpuReplyFlits
	}
	params := noc.Params{
		InjCapCore: 16,
		InjCapMem:  s.Cfg.NoC.InjectionBuf,
		EjCap:      2*maxFlits + s.Cfg.NoC.FlitsPerVC,
		AsmCap:     8,
		MemNodes:   memSet,
	}
	if s.Cfg.NoC.SharedPhys {
		net := noc.NewNetwork("noc", s.topology(), s.Cfg.NoC, l.Nodes(), params)
		s.ReqNet, s.RepNet = net, net
		s.nets = []*noc.Network{net}
		return
	}
	s.ReqNet = noc.NewNetwork("request", s.topology(), s.Cfg.NoC, l.Nodes(), params)
	s.RepNet = noc.NewNetwork("reply", s.topology(), s.Cfg.NoC, l.Nodes(), params)
	s.nets = []*noc.Network{s.ReqNet, s.RepNet}
}

func (s *System) buildNodes() {
	l := s.Cfg.Layout
	n := l.Nodes()
	s.gpuIdx = make([]int, n)
	s.cpuIdx = make([]int, n)
	s.memIdx = make([]int, n)
	for i := range s.gpuIdx {
		s.gpuIdx[i], s.cpuIdx[i], s.memIdx[i] = -1, -1, -1
	}
	for node := 0; node < n; node++ {
		switch l.Kind(node) {
		case config.KindGPU:
			idx := len(s.GPUs)
			s.gpuIdx[node] = idx
			g := newGPUCore(s, node, idx)
			s.GPUs = append(s.GPUs, g)
			s.wireHandlers(node, g.HandlePacket)
		case config.KindCPU:
			idx := len(s.CPUs)
			s.cpuIdx[node] = idx
			c := cpu.New(node, s.CPUProf, s, s.Cfg.Seed)
			s.CPUs = append(s.CPUs, c)
			node := node
			s.wireHandlers(node, func(p *noc.Packet) bool {
				return s.cpuHandle(node, p)
			})
		case config.KindMem:
			idx := len(s.Mems)
			s.memIdx[node] = idx
			s.memNodes = append(s.memNodes, node)
			m := newMemNode(s, node, idx)
			s.Mems = append(s.Mems, m)
			s.wireHandlers(node, m.HandlePacket)
		}
	}
	// Each SM's address stream binds its sharing group's common
	// wavefront, whose member count needs the GPU count.
	fronts := map[int]*workload.Wavefront{}
	for _, g := range s.GPUs {
		gen := workload.NewAddrGen(s.GPUProf, g.Idx, s.Cfg.GPU.CTASched, s.Cfg.Seed)
		grp := g.Idx / s.GPUProf.ShareGroup
		wf, ok := fronts[grp]
		if !ok {
			members := s.GPUProf.ShareGroup
			if rem := len(s.GPUs) - grp*members; rem < members {
				members = rem
			}
			wf = workload.NewWavefront(members)
			fronts[grp] = wf
		}
		gen.BindWavefront(wf)
		g.SM = gpu.NewSM(g.Idx, s.Cfg.GPU, s.GPUProf, gen, g)
	}
	s.precomputeProbeTargets()
	if s.Cfg.GPU.Org != config.L1Private {
		s.buildClusters()
	}
}

func (s *System) wireHandlers(node int, h func(*noc.Packet) bool) {
	for _, n := range s.nets {
		n.NI(node).Handler = h
	}
}

// buildClusters groups GPU cores into shared-L1 clusters of eight.
func (s *System) buildClusters() {
	for i := 0; i < len(s.GPUs); i += ClusterCores {
		end := i + ClusterCores
		if end > len(s.GPUs) {
			end = len(s.GPUs)
		}
		s.Clusters = append(s.Clusters, newCluster(s, len(s.Clusters), s.GPUs[i:end]))
	}
}

// precomputeProbeTargets orders, for each GPU core, the other GPU nodes
// by hop distance (the RP probe candidates).
func (s *System) precomputeProbeTargets() {
	l := s.Cfg.Layout
	for _, g := range s.GPUs {
		x0, y0 := l.XY(g.Node)
		var others []int
		for _, h := range s.GPUs {
			if h.Node != g.Node {
				others = append(others, h.Node)
			}
		}
		sort.Slice(others, func(i, j int) bool {
			xi, yi := l.XY(others[i])
			xj, yj := l.XY(others[j])
			di := abs(xi-x0) + abs(yi-y0)
			dj := abs(xj-x0) + abs(yj-y0)
			if di != dj {
				return di < dj
			}
			return others[i] < others[j]
		})
		g.probeTargets = others
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// reqNI and repNI return a node's network interfaces for each class.
func (s *System) reqNI(node int) *noc.NI { return s.ReqNet.NI(node) }
func (s *System) repNI(node int) *noc.NI { return s.RepNet.NI(node) }

// memNodeFor maps a line address to its home memory node using a
// randomizing hash (PAE-style address mapping [43]).
func (s *System) memNodeFor(line cache.Addr) int {
	h := uint64(line) * 0xbf58476d1ce4e5b9
	h ^= h >> 31
	return s.memNodes[(h>>32)%uint64(len(s.memNodes))]
}

// newPacket constructs a packet with a fresh id. The packet comes
// from the free list (scrubbed on retire), so untouched fields are
// zero exactly as in a fresh allocation.
func (s *System) newPacket(src, dst int, class noc.Class, prio noc.Priority, flits int, m *Msg) *noc.Packet {
	p := s.al.allocPacket()
	p.ID, p.Src, p.Dst = s.al.nextID(), src, dst
	p.Class, p.Prio, p.SizeFlits, p.Payload = class, prio, flits, m
	if s.obs != nil {
		p.Trace = s.obs.TraceFor(p.ID)
	}
	return p
}

// isDelegated and isRP report the active scheme.
func (s *System) isDelegated() bool { return s.Cfg.Scheme == config.SchemeDelegatedReplies }
func (s *System) isRP() bool        { return s.Cfg.Scheme == config.SchemeRP }

// SendCPURead implements cpu.Sender. It runs inside the node phase
// (cpu.Core.Tick).
func (s *System) SendCPURead(node int, line cache.Addr) bool {
	ni := s.reqNI(node)
	if !ni.CanInject(noc.ClassRequest) {
		return false
	}
	p := s.newPacket(node, s.memNodeFor(line), noc.ClassRequest, noc.PrioCPU, 1,
		s.al.msgOf(Msg{Type: MsgCPURead, Line: line, Requester: node}))
	return ni.Inject(p)
}

// cpuHandle consumes replies at a CPU node.
func (s *System) cpuHandle(node int, p *noc.Packet) bool {
	m := p.Payload.(*Msg)
	if m.Type != MsgReply {
		panic("core: unexpected message at CPU node: " + m.Type.String())
	}
	s.CPUs[s.cpuIdx[node]].ReplyArrived(m.Line)
	s.al.retire(p)
	return true
}

// sampleLocality measures Figure 2's inter-core locality: on a sampled
// L1 read miss, check whether any remote GPU L1 (or shared slice) holds
// the line. Measurement only; no timing effect: the remote probes are
// read-only Peeks.
func (s *System) sampleLocality(g *GPUCore, line cache.Addr) {
	if (g.Stats.L1ReadMisses+int64(g.Idx))%localitySamplePeriod != 0 {
		return
	}
	l := &s.loc
	l.samples++
	shared := workload.IsShared(line)
	if shared {
		l.sharedSamples++
	}
	for _, h := range s.GPUs {
		if h == g {
			continue
		}
		if h.probeLocal(line) {
			l.hits++
			if shared {
				l.sharedHits++
			}
			return
		}
	}
}

// Cycle returns the current cycle.
func (s *System) Cycle() int64 { return s.cycle }

// Tick advances the whole system one cycle. This is the only
// orchestration of the cycle, in four phases on the caller:
//
//	begin        memory blocking samples (read NI state pre-network),
//	             per-cycle budget resets
//	networks     ReqNet compute -> ReqNet commit -> RepNet compute ->
//	             RepNet commit (packet ejection in node order)
//	tickNodes    mems -> clusters -> gpus -> cpus
//	endCycle     kernel flush, observer
//
// The request network ticks first: its ejection handlers — the only
// code that touches both networks in one cycle — inject into a reply
// network that has not ticked yet, so those replies carry the reply
// network's pre-tick clock as their Enqueued stamp and see its pre-tick
// occupancy. Their ReadyAt is at least cycle+LLC.Latency (>= 1), so the
// reply network's compute in the same cycle cannot send them. With a
// shared physical network there is one network and one tick.
func (s *System) Tick() {
	s.begin()
	for _, n := range s.nets {
		n.Tick()
	}
	s.tickNodes()
	s.endCycle()
}

// begin advances the clock, samples memory blocking — which reads NI
// occupancy as it stands before the network phase — and resets the
// per-cycle budgets the ejection handlers draw on.
func (s *System) begin() {
	s.cycle++
	for _, m := range s.Mems {
		m.sampleBlocked()
		m.beginQuota()
	}
	for _, g := range s.GPUs {
		g.BeginCycle()
	}
}

// tickNodes is the node phase, in the canonical order: memory nodes,
// clusters, GPU cores, CPU cores.
func (s *System) tickNodes() {
	for _, m := range s.Mems {
		m.Tick()
	}
	for _, c := range s.Clusters {
		c.Tick()
	}
	for _, g := range s.GPUs {
		g.Tick()
	}
	for _, c := range s.CPUs {
		c.Tick()
	}
}

// endCycle runs the end-of-cycle residue: kernel-boundary flushes and
// the observer hook.
func (s *System) endCycle() {
	if s.nextFlush > 0 && s.cycle >= s.nextFlush {
		s.kernelFlush()
		s.nextFlush = s.cycle + int64(s.Cfg.GPU.KernelCycles)
	}
	if s.obs != nil {
		s.obs.Tick(s.cycle)
	}
}

// kernelFlush emulates the software-coherence kernel boundary: GPU L1s
// are invalidated and all LLC core pointers are dropped.
func (s *System) kernelFlush() {
	for _, g := range s.GPUs {
		g.FlushL1()
	}
	for _, c := range s.Clusters {
		for _, sl := range c.slices {
			sl.cache.InvalidateAll()
		}
	}
	for _, m := range s.Mems {
		m.FlushPointers()
	}
}

// Run advances n cycles. With a phase profile attached each cycle is
// the instrumented step (profile.go): the same phase methods with a
// clock read between them.
func (s *System) Run(n int64) {
	step := s.Tick
	if s.prof != nil {
		step = s.profiledStep
	}
	for i := int64(0); i < n; i++ {
		step()
	}
}

// ResetStats zeroes all measurement state (call at the end of warmup).
func (s *System) ResetStats() {
	s.warmed = s.cycle
	for _, n := range s.nets {
		n.ResetStats()
	}
	for _, g := range s.GPUs {
		g.ResetStats()
	}
	for _, c := range s.CPUs {
		c.ResetStats()
	}
	for _, m := range s.Mems {
		m.ResetStats()
	}
	for _, c := range s.Clusters {
		c.ResetStats()
	}
	s.loc = locCounters{}
	for i := range s.loadLat {
		s.loadLat[i].Reset()
	}
	s.loadBreak = [5]breakAcc{}
}

// RunWorkload runs the configured warmup then measurement window and
// returns the results. It is the uncontrolled form of RunWorkloadCtx;
// the two are bit-identical for completed runs.
func (s *System) RunWorkload() Results {
	r, err := s.RunWorkloadCtx(RunControl{})
	if err != nil {
		// Unreachable: a zero RunControl has no context to cancel.
		panic(err)
	}
	return r
}

package core

import (
	"fmt"
	"math/rand"
	"sort"

	"delrep/internal/cache"
	"delrep/internal/config"
	"delrep/internal/cpu"
	"delrep/internal/gpu"
	"delrep/internal/noc"
	"delrep/internal/obs"
	"delrep/internal/par"
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
	RepNet *noc.Network // == ReqNet when the physical network is shared

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
	rng    *rand.Rand

	// allocOf maps a node id to the allocator its tick-phase sends draw
	// from: the owning shard's (see pool.go). Only CPU nodes route
	// through this table (GPU cores and memory nodes carry their own
	// pointer).
	allocOf []*alloc

	// Inter-core locality sampling (Figure 2): on a sampled subset of
	// L1 read misses, check whether any remote GPU L1 holds the line.
	// Canonical counters; node ticks accumulate into per-shard deltas
	// folded here at node commit (see locCounters).
	loc locCounters

	// End-to-end GPU load latency by reply kind (diagnostics).
	loadLat [5]stats.Sampler

	// Per-reply-kind latency attribution sums (queueing vs transit vs
	// serialization vs delegation overhead), fed by NetAcct.
	loadBreak [5]breakAcc

	// obs, when non-nil, is the attached observability layer (see
	// AttachObserver). Strictly measurement-only.
	obs *obs.Observer

	// pool runs the two compute dispatches of the cycle — network tile
	// sections, then node shards — across `parallel` workers; a pool of
	// one runs them inline (see SetParallel in parallel.go).
	pool     *par.Pool
	parallel int

	// shards partitions the node phase (Mems/Clusters/GPUs/CPUs); there
	// is always at least one (see shard.go).
	shards []*shard

	// Prebound section bodies so the per-cycle dispatches do not
	// allocate.
	netSectionFn  func(int)
	nodeSectionFn func(int)

	// prof, when non-nil, accumulates per-phase wall time (see
	// profile.go). Measurement-only: Run steps the same phase methods
	// as Tick with a clock read between them.
	prof *PhaseProfile

	nextFlush int64
}

// locCounters is the inter-core locality sample block. The canonical
// copy lives in the System; node ticks write through a per-shard
// delta that the node commit folds into the canonical copy every cycle
// in fixed shard order.
type locCounters struct {
	samples       int64
	hits          int64
	sharedSamples int64
	sharedHits    int64
	predSamples   int64
	predHits      int64
}

// add folds a delta into the receiver.
func (l *locCounters) add(d *locCounters) {
	l.samples += d.samples
	l.hits += d.hits
	l.sharedSamples += d.sharedSamples
	l.sharedHits += d.sharedHits
	l.predSamples += d.predSamples
	l.predHits += d.predHits
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
		rng:           rand.New(rand.NewSource(cfg.Seed)),
	}
	s.buildNetworks()
	s.buildNodes()
	s.prewarmLLC()
	s.nextFlush = int64(cfg.GPU.KernelCycles)
	s.netSectionFn, s.nodeSectionFn = s.netSection, s.nodeSection
	s.SetParallel(1)
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
			insert(cache.Addr(cpu.CPUBase+uint64(c.Node)*cpu.RegionLines+uint64(i)), 0)
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
		return
	}
	s.ReqNet = noc.NewNetwork("request", s.topology(), s.Cfg.NoC, l.Nodes(), params)
	s.RepNet = noc.NewNetwork("reply", s.topology(), s.Cfg.NoC, l.Nodes(), params)
}

func (s *System) buildNodes() {
	l := s.Cfg.Layout
	n := l.Nodes()
	s.gpuIdx = make([]int, n)
	s.cpuIdx = make([]int, n)
	s.memIdx = make([]int, n)
	s.allocOf = make([]*alloc, n)
	for i := range s.gpuIdx {
		s.gpuIdx[i], s.cpuIdx[i], s.memIdx[i] = -1, -1, -1
	}
	for node := 0; node < n; node++ {
		switch l.Kind(node) {
		case config.KindGPU:
			idx := len(s.GPUs)
			s.gpuIdx[node] = idx
			g := newGPUCore(s, node, idx)
			gen := workload.NewAddrGen(s.GPUProf, idx, 0, s.Cfg.GPU.CTASched, s.Cfg.Seed)
			g.SM = gpu.NewSM(idx, s.Cfg.GPU, s.GPUProf, gen, g)
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
	// Regenerate address streams now that the GPU count is known, and
	// bind each sharing group's common wavefront.
	fronts := map[int]*workload.Wavefront{}
	for _, g := range s.GPUs {
		gen := workload.NewAddrGen(s.GPUProf, g.Idx, len(s.GPUs), s.Cfg.GPU.CTASched, s.Cfg.Seed)
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
	s.ReqNet.NI(node).Handler = h
	if s.RepNet != s.ReqNet {
		s.RepNet.NI(node).Handler = h
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

// newPacketOn constructs a packet with a fresh id from the given
// allocator (the creating node's shard's). The packet comes from the
// free list (scrubbed on retire), so untouched fields are zero exactly
// as in a fresh allocation.
func (s *System) newPacketOn(a *alloc, src, dst int, class noc.Class, prio noc.Priority, flits int, m *Msg) *noc.Packet {
	p := a.allocPacket()
	p.ID, p.Src, p.Dst = a.nextID(), src, dst
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
// (cpu.Core.Tick), so the packet draws from the node's shard-local
// allocator.
func (s *System) SendCPURead(node int, line cache.Addr) bool {
	ni := s.reqNI(node)
	if !ni.CanInject(noc.ClassRequest) {
		return false
	}
	al := s.allocOf[node]
	p := s.newPacketOn(al, node, s.memNodeFor(line), noc.ClassRequest, noc.PrioCPU, 1,
		al.msgOf(Msg{Type: MsgCPURead, Line: line, Requester: node}))
	return ni.Inject(p)
}

// cpuHandle consumes replies at a CPU node.
func (s *System) cpuHandle(node int, p *noc.Packet) bool {
	m := p.Payload.(*Msg)
	if m.Type != MsgReply {
		panic("core: unexpected message at CPU node: " + m.Type.String())
	}
	s.CPUs[s.cpuIdx[node]].ReplyArrived(m.Line)
	s.allocOf[node].retire(p)
	return true
}

// sampleLocality measures Figure 2's inter-core locality: on a sampled
// L1 read miss, check whether any remote GPU L1 (or shared slice) holds
// the line. Measurement only; no timing effect. Counters accumulate
// through the core's locality block (its shard's delta); the remote
// probes are read-only Peeks against tags that only change at commit
// time, so they are safe to issue from inside a shard.
func (s *System) sampleLocality(g *GPUCore, line cache.Addr) {
	if (g.Stats.L1ReadMisses+int64(g.Idx))%localitySamplePeriod != 0 {
		return
	}
	l := g.loc
	l.samples++
	shared := uint64(line) >= 2<<30 && uint64(line) < 3<<30
	if shared {
		l.sharedSamples++
		if k := g.Idx % s.GPUProf.ShareGroup; k > 0 {
			l.predSamples++
			if s.GPUs[g.Idx-1].probeLocal(line) {
				l.predHits++
			}
		}
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

// LocalityBreakdown reports (sharedSamples, sharedHits, totalSamples,
// totalHits) for diagnostics.
func (s *System) LocalityBreakdown() (int64, int64, int64, int64) {
	return s.loc.sharedSamples, s.loc.sharedHits, s.loc.samples, s.loc.hits
}

// ProbeGPU reports whether GPU core idx currently caches the line
// (diagnostics).
func (s *System) ProbeGPU(idx int, line cache.Addr) bool {
	return s.GPUs[idx].probeLocal(line)
}

// PredLocality reports how often the wavefront predecessor held a
// sampled shared miss (diagnostics).
func (s *System) PredLocality() (int64, int64) { return s.loc.predSamples, s.loc.predHits }

// Cycle returns the current cycle.
func (s *System) Cycle() int64 { return s.cycle }

// Tick advances the whole system one cycle. This is the only
// orchestration of the cycle: six phases over a partition of the
// networks into tiles (noc/tile.go) and of the nodes into shards
// (shard.go), two of them dispatched across the pool.
//
//	begin        memory blocking samples (read NI state pre-network)
//	netCompute   both networks' tile sections + shard begins, one dispatch
//	netCommit    ReqNet commit -> ReleaseEnq -> RepNet commit
//	             (stats folds, packet ejection in node order)
//	nodeCompute  shard ticks (mems -> clusters -> gpus -> cpus), one dispatch
//	nodeCommit   locality-delta folds in shard order
//	endCycle     kernel flush, observer
//
// Partition sizes are an execution choice SetParallel derives from the
// topology and configuration; a one-tile, one-shard system runs both
// dispatches inline. Results do not depend on them. Beyond the
// per-network argument in noc/tile.go and the per-shard one in
// shard.go, that rests on the order the two networks are ticked in:
// the request network logically ticks first, and its ejection
// handlers — the only code that touches both networks in one cycle —
// inject into a reply network that has not ticked yet. Computing both
// networks before either commits preserves that order because:
//
//   - The compute phases share no state. The handlers' reply
//     injections land as tail appends with ReadyAt >= cycle+LLC.Latency
//     (>= 1), which the already-finished reply compute phase could
//     never have observed: headReady rejects future ReadyAt, and tail
//     appends cannot change any head streaming decision already taken.
//   - The Enqueued stamp of those injections is the reply network's
//     pre-tick clock, and the capacity they see is its pre-tick
//     occupancy. So the reply network's injection stamp and an
//     occupancy snapshot (noc's enqNow / NI.holdLen) are held at the
//     previous cycle until the request network has committed, then
//     released (ReleaseEnq) before the reply commit. With a shared
//     physical network there is one clock and one tick, so no hold.
func (s *System) Tick() {
	s.begin()
	s.netCompute()
	s.netCommit()
	s.nodeCompute()
	s.nodeCommit()
	s.endCycle()
}

// begin advances the clock and samples memory blocking, which reads NI
// occupancy as it stands before the network phase and so cannot ride
// the compute dispatch.
func (s *System) begin() {
	s.cycle++
	for _, m := range s.Mems {
		m.sampleBlocked()
	}
}

// netCompute opens both networks' cycles and dispatches their tile
// compute sections together with the shards' begin-of-cycle resets.
func (s *System) netCompute() {
	s.ReqNet.BeginTick(false)
	if s.RepNet != s.ReqNet {
		s.RepNet.BeginTick(true)
	}
	s.pool.Run(s.netSectionFn)
}

// netSection is worker w's share of the netCompute dispatch.
func (s *System) netSection(worker int) {
	s.ReqNet.ComputeSection(worker)
	if s.RepNet != s.ReqNet {
		s.RepNet.ComputeSection(worker)
	}
	for i := worker; i < len(s.shards); i += s.parallel {
		s.shards[i].BeginCycle()
	}
}

// netCommit commits the request network, then releases the reply
// network's held injection stamp and commits it.
func (s *System) netCommit() {
	s.ReqNet.CommitTick()
	if s.RepNet != s.ReqNet {
		s.RepNet.ReleaseEnq()
		s.RepNet.CommitTick()
	}
}

// nodeCompute dispatches the shard ticks.
func (s *System) nodeCompute() {
	s.pool.Run(s.nodeSectionFn)
}

// nodeSection is worker w's share of the nodeCompute dispatch: shards
// w, w+P, w+2P, ...
func (s *System) nodeSection(worker int) {
	for i := worker; i < len(s.shards); i += s.parallel {
		s.shards[i].Tick()
	}
}

// nodeCommit folds the shard-private locality deltas into the
// canonical counters in fixed shard order.
func (s *System) nodeCommit() {
	for _, sh := range s.shards {
		s.loc.add(&sh.loc)
		sh.loc = locCounters{}
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
	s.ReqNet.ResetStats()
	if s.RepNet != s.ReqNet {
		s.RepNet.ResetStats()
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
	s.loc = locCounters{} // shard deltas are zero between cycles
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

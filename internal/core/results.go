package core

import (
	"delrep/internal/config"
	"delrep/internal/noc"
	"delrep/internal/stats"
)

// Breakdown is the Figure 14 L1 read-miss service breakdown.
type Breakdown struct {
	LLCDirect  int64 // served by the LLC/DRAM without forwarding
	RemoteHit  int64 // served by a remote L1
	RemoteMiss int64 // forwarded but missed remotely (DNF re-served)
}

// Total returns the number of classified replies.
func (b Breakdown) Total() int64 { return b.LLCDirect + b.RemoteHit + b.RemoteMiss }

// ForwardedFrac returns the fraction of misses forwarded to remote L1s.
func (b Breakdown) ForwardedFrac() float64 {
	return stats.Ratio(b.RemoteHit+b.RemoteMiss, b.Total())
}

// RemoteHitFrac returns the fraction of forwarded misses that hit.
func (b Breakdown) RemoteHitFrac() float64 {
	return stats.Ratio(b.RemoteHit, b.RemoteHit+b.RemoteMiss)
}

// LatBreak is the per-load latency attribution (the paper's Figure 4
// story): where the cycles of a GPU load's end-to-end latency went.
// Averages are per completed load; ServiceAvg is the residual not
// spent in the network or delegation wait (LLC pipeline, DRAM, FRQ
// service at the remote core).
type LatBreak struct {
	Count        int64
	TotalAvg     float64 // end-to-end cycles
	QueueAvg     float64 // source injection-queue wait, summed over legs
	XferAvg      float64 // head-flit network transit, summed over legs
	SerAvg       float64 // tail serialization beyond the head
	DelegWaitAvg float64 // time stuck in reply buffers before delegation
	ServiceAvg   float64 // residual: node service time
	HopsAvg      float64 // router traversals per load
	LegsAvg      float64 // network legs per load
	DelegFrac    float64 // delegations per load
}

func (s *System) latBreak(b *breakAcc) LatBreak {
	if b.n == 0 {
		return LatBreak{}
	}
	n := float64(b.n)
	lb := LatBreak{
		Count:        b.n,
		TotalAvg:     float64(b.total) / n,
		QueueAvg:     float64(b.queue) / n,
		XferAvg:      float64(b.xfer) / n,
		SerAvg:       float64(b.ser) / n,
		DelegWaitAvg: float64(b.delegWait) / n,
		HopsAvg:      float64(b.hops) / n,
		LegsAvg:      float64(b.legs) / n,
		DelegFrac:    float64(b.delegs) / n,
	}
	lb.ServiceAvg = float64(b.total-b.queue-b.xfer-b.ser-b.delegWait) / n
	return lb
}

// Results summarises one measured simulation window.
type Results struct {
	Cycles int64

	// GPU side.
	GPUInsts        int64
	GPUIPC          float64 // aggregate instructions per cycle
	GPURecvRate     float64 // reply flits received per GPU core per cycle (Fig. 11)
	L1MissRate      float64
	Breakdown       Breakdown
	Delegations     int64
	InterCoreLocal  float64 // Figure 2 metric
	FRQSameLineFrac float64

	// CPU side.
	CPUThroughput float64 // completed requests per cycle, all cores
	CPULatAvg     float64 // network round-trip latency (Fig. 12)
	CPULatMax     float64

	// Memory nodes and NoC.
	MemBlockedRate   float64 // fraction of cycles reply buffers were full (Fig. 5b)
	MemReplyLinkUtil float64 // mean utilization of memory-node reply ports
	ReqFlits         int64
	RepFlits         int64
	FlitHops         int64
	LLCHitRate       float64

	// RP diagnostics.
	ProbesSent int64
	ProbeHits  int64

	// End-to-end GPU load latency by reply kind (diagnostics).
	LatLLCHit     float64
	LatDRAM       float64
	LatRemoteHit  float64
	LatRemoteMiss float64
	GPULoadLatAvg float64

	// Latency attribution across all completed GPU loads and per reply
	// kind (indexed by ReplyKind).
	LoadBreak       LatBreak
	LoadBreakByKind [5]LatBreak

	// DRAM.
	DRAMBusUtil float64
	DRAMAvgLat  float64

	// MSHR behaviour: primary misses allocate; secondary accesses merge.
	MSHRAllocs      int64
	MSHRMerges      int64
	PrimaryMissRate float64

	// Network transit latency (enqueue to ejection) per class for GPU
	// packets: localizes where request/response time is spent.
	ReqNetLatGPU float64
	RepNetLatGPU float64
}

// Collect computes Results over the window since the last ResetStats.
func (s *System) Collect() Results {
	cycles := s.cycle - s.warmed
	r := Results{Cycles: cycles}
	if cycles <= 0 {
		return r
	}
	var l1Acc, l1Miss, frqSame, frqTotal int64
	for _, g := range s.GPUs {
		r.GPUInsts += g.SM.Insts
		r.Breakdown.LLCDirect += g.Stats.RepliesLLCHit + g.Stats.RepliesDRAM
		r.Breakdown.RemoteHit += g.Stats.RepliesRemoteHit
		r.Breakdown.RemoteMiss += g.Stats.RepliesRemoteMiss
		r.ProbesSent += g.Stats.ProbesSent
		r.ProbeHits += g.Stats.ProbeHits
		l1Acc += g.Stats.L1Accesses
		l1Miss += g.Stats.L1ReadMisses
		frqSame += g.Stats.FRQSameLine
		frqTotal += g.Stats.FRQRemoteHits + g.Stats.FRQRemoteMisses + g.Stats.FRQDelayedHits
	}
	r.FRQSameLineFrac = stats.Ratio(frqSame, frqTotal)
	for _, g := range s.GPUs {
		r.MSHRAllocs += g.mshr.Allocs
		r.MSHRMerges += g.mshr.Merges
	}
	r.PrimaryMissRate = stats.Ratio(r.MSHRAllocs, l1Acc)
	r.GPUIPC = float64(r.GPUInsts) / float64(cycles)
	r.L1MissRate = stats.Ratio(l1Miss, l1Acc)
	var recv int64
	for _, g := range s.GPUs {
		recv += s.repNI(g.Node).EjFlitsByClass[noc.ClassReply]
	}
	if len(s.GPUs) > 0 {
		r.GPURecvRate = float64(recv) / float64(cycles) / float64(len(s.GPUs))
	}
	r.InterCoreLocal = stats.Ratio(s.loc.hits, s.loc.samples)

	var lat stats.Sampler
	var completed int64
	for _, c := range s.CPUs {
		completed += c.Completed
		if c.Lat.Count() > 0 {
			lat.Add(c.Lat.Mean())
		}
	}
	r.CPUThroughput = float64(completed) / float64(cycles)
	r.CPULatAvg = lat.Mean()
	r.CPULatMax = lat.Max()

	var blocked, llcHits, llcReq int64
	for _, m := range s.Mems {
		blocked += m.Stats.BlockedCycles
		r.Delegations += m.Stats.Delegations
		llcHits += m.Stats.LLCHits
		llcReq += m.Stats.LLCHits + m.Stats.LLCMisses
	}
	r.MemBlockedRate = float64(blocked) / float64(cycles*int64(len(s.Mems)))
	r.LLCHitRate = stats.Ratio(llcHits, llcReq)
	r.MemReplyLinkUtil = s.memReplyLinkUtil()
	r.ReqFlits = s.ReqNet.InjectedFlits(noc.ClassRequest)
	r.RepFlits = s.RepNet.InjectedFlits(noc.ClassReply)
	r.FlitHops = s.ReqNet.FlitHops()
	if s.RepNet != s.ReqNet {
		r.FlitHops += s.RepNet.FlitHops()
	}

	r.ReqNetLatGPU = s.ReqNet.PktLat[noc.PrioGPU].Mean()
	r.RepNetLatGPU = s.RepNet.PktLat[noc.PrioGPU].Mean()
	r.LatLLCHit = s.loadLat[ReplyLLCHit].Mean()
	r.LatDRAM = s.loadLat[ReplyDRAM].Mean()
	r.LatRemoteHit = combineMeans(&s.loadLat[ReplyRemoteHit], &s.loadLat[ReplyProbeHit])
	r.LatRemoteMiss = s.loadLat[ReplyRemoteMiss].Mean()
	var n int64
	var sum float64
	for i := range s.loadLat {
		n += s.loadLat[i].Count()
		sum += s.loadLat[i].Sum()
	}
	if n > 0 {
		r.GPULoadLatAvg = sum / float64(n)
	}
	var all breakAcc
	for i := range s.loadBreak {
		b := &s.loadBreak[i]
		r.LoadBreakByKind[i] = s.latBreak(b)
		all.n += b.n
		all.total += b.total
		all.queue += b.queue
		all.xfer += b.xfer
		all.ser += b.ser
		all.delegWait += b.delegWait
		all.hops += b.hops
		all.legs += b.legs
		all.delegs += b.delegs
	}
	r.LoadBreak = s.latBreak(&all)

	var busy, served, dlat int64
	for _, m := range s.Mems {
		sr := m.mc.ServedReads + m.mc.ServedWrites
		served += sr
		busy += sr * int64(s.Cfg.DRAM.BurstCyc)
		dlat += int64(m.mc.AvgLatency() * float64(sr))
	}
	r.DRAMBusUtil = float64(busy) / float64(cycles*int64(len(s.Mems)))
	if served > 0 {
		r.DRAMAvgLat = float64(dlat) / float64(served)
	}
	return r
}

func combineMeans(a, b *stats.Sampler) float64 {
	n := a.Count() + b.Count()
	if n == 0 {
		return 0
	}
	return (a.Sum() + b.Sum()) / float64(n)
}

// memReplyLinkUtil averages the utilization of the memory-node routers'
// inter-router output ports on the reply network: the links that clog.
func (s *System) memReplyLinkUtil() float64 {
	topo := s.RepNet.Topology()
	var u stats.Sampler
	for _, node := range s.memNodes {
		rtr, _ := topo.NodePort(node)
		for _, port := range s.wiredPorts(rtr) {
			util := s.RepNet.PortUtilization(rtr, port)
			if util > 0 {
				u.Add(util)
			}
		}
	}
	return u.Mean()
}

// MeshLinkUtil returns the per-router utilization of one mesh output
// port (noc.PortE etc.) on the request or reply network, as a
// height x width grid — the raw material for clogging heatmaps. It
// returns nil for non-mesh topologies.
func (s *System) MeshLinkUtil(reply bool, port int) [][]float64 {
	if s.Cfg.NoC.Topology != config.TopoMesh {
		return nil
	}
	net := s.ReqNet
	if reply {
		net = s.RepNet
	}
	l := s.Cfg.Layout
	grid := make([][]float64, l.Height)
	for y := range grid {
		grid[y] = make([]float64, l.Width)
		for x := range grid[y] {
			grid[y][x] = net.PortUtilization(l.ID(x, y), port)
		}
	}
	return grid
}

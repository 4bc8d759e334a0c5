package core

import (
	"delrep/internal/cache"
	"delrep/internal/config"
	"delrep/internal/fifo"
	"delrep/internal/gpu"
	"delrep/internal/noc"
)

// ClusterCores is the number of GPU cores sharing one L1 (DC-L1 [30]).
const ClusterCores = 8

// ClusterSlices is the number of address-interleaved slices of the
// shared L1.
const ClusterSlices = 4

// sliceQCap bounds the per-slice request queue; a full queue is the
// serialization that makes shared L1s lose effective bandwidth on hot
// shared data (the paper's NN/2DCON slowdowns).
const sliceQCap = 8

// sliceReq is one queued access to a shared L1 slice.
type sliceReq struct {
	core *GPUCore
	warp int
	line cache.Addr
}

// slice is one bank of the shared L1.
type slice struct {
	cache *cache.Cache
	mshr  *cache.MSHR[mshrTarget]
	q     []sliceReq
	host  *GPUCore // core whose node sends/receives this slice's traffic
}

// ClusterStats counts shared-organisation events.
type ClusterStats struct {
	SliceHits    int64
	SliceMisses  int64
	QueueFullEv  int64
	ModeSwitches int64
}

// Cluster implements the shared GPU L1 organisations: DC-L1 (statically
// shared) and DynEB (epoch-sampled choice between shared and private
// based on achieved instruction throughput, i.e. effective bandwidth).
type Cluster struct {
	sys    *System
	id     int
	cores  []*GPUCore
	slices []*slice

	shared bool
	org    config.L1Org

	// DynEB sampling state.
	epochLen    int64
	epochStart  int64
	phase       int // 0: sample private, 1: sample shared, 2..7: committed
	instsAt     int64
	scorePriv   float64
	scoreShared float64

	Stats ClusterStats
}

func newCluster(sys *System, id int, cores []*GPUCore) *Cluster {
	c := &Cluster{
		sys:      sys,
		id:       id,
		cores:    cores,
		org:      sys.Cfg.GPU.Org,
		epochLen: int64(sys.Cfg.GPU.DynEBEpoch),
	}
	sliceBytes := sys.Cfg.GPU.L1Bytes * len(cores) / ClusterSlices
	for i := 0; i < ClusterSlices; i++ {
		c.slices = append(c.slices, &slice{
			cache: cache.New(cache.Config{
				SizeBytes: sliceBytes,
				Assoc:     sys.Cfg.GPU.L1Assoc * 2,
				LineBytes: sys.Cfg.GPU.L1LineBytes,
			}),
			mshr: cache.NewMSHR[mshrTarget](sys.Cfg.GPU.L1MSHRs),
			q:    make([]sliceReq, 0, sliceQCap),
			host: cores[(i*len(cores))/ClusterSlices],
		})
	}
	c.shared = c.org == config.L1DCL1 // DynEB starts private (baseline)
	for _, g := range cores {
		g.cluster = c
	}
	return c
}

// Shared reports whether the shared organisation is currently active.
func (c *Cluster) Shared() bool { return c.shared }

func (c *Cluster) sliceFor(line cache.Addr) *slice {
	h := uint64(line) * 0x2545f4914f6cdd1d
	return c.slices[(h>>32)%uint64(len(c.slices))]
}

// Access enqueues a read on the line's slice, or performs a
// write-through. Reads always resolve asynchronously (slice port
// serialization); a full slice queue blocks the warp. Read refusals are
// AccessBusy, never memoised: a full queue is counted every time it is
// met, and the port budget refills on its own.
func (c *Cluster) Access(g *GPUCore, line cache.Addr, write bool, warp int) gpu.AccessResult {
	if write {
		// Write-through, no-write-allocate; the shared copy is updated
		// in place without consuming a slice port (store path).
		return g.writeThrough(line)
	}
	sl := c.sliceFor(line)
	if len(sl.q) >= sliceQCap {
		c.Stats.QueueFullEv++
		return gpu.AccessBusy
	}
	if g.budget <= 0 {
		return gpu.AccessBusy
	}
	g.budget--
	g.Stats.L1Accesses++
	sl.q = append(sl.q, sliceReq{core: g, warp: warp, line: line})
	return gpu.AccessMiss
}

// Probe reports whether the line is resident in any slice.
func (c *Cluster) Probe(line cache.Addr) bool {
	hit, _ := c.sliceFor(line).cache.Peek(line)
	return hit
}

// ServeRemote serves one delegated reply against the shared L1 on
// behalf of core g (the delegation target). It reports whether the
// entry was consumed.
func (c *Cluster) ServeRemote(g *GPUCore, m *Msg) bool {
	sl := c.sliceFor(m.Line)
	if hit, _, way := sl.cache.Probe(m.Line); hit {
		// The hit counts even when the reply buffer refuses it and
		// the FRQ retries the entry later.
		sl.cache.CommitHit(way)
		if g.repFree() < 1 {
			return false
		}
		g.Stats.FRQRemoteHits++
		g.send(Msg{Type: MsgReply, Line: m.Line, Requester: m.Requester, Kind: ReplyRemoteHit, Born: m.Born, Acct: m.Acct},
			m.Requester, noc.ClassReply, noc.PrioGPU, g.sys.gpuReplyFlits)
		return true
	}
	sl.cache.RecordMiss()
	if _, out := sl.mshr.Lookup(m.Line); out {
		sl.mshr.Merge(m.Line, mshrTarget{Warp: -1, Remote: m.Requester, Born: m.Born, Acct: m.Acct})
		g.Stats.FRQDelayedHits++
		return true
	}
	g.Stats.FRQRemoteMisses++
	g.sendLLCRead(m.Line, m.Requester, true, m.Born, m.Acct)
	return true
}

// HandleFill routes a reply arriving at a host core into the slice;
// it reports whether the line belonged to the shared organisation.
func (c *Cluster) HandleFill(host *GPUCore, m *Msg) (handled, done bool) {
	sl := c.sliceFor(m.Line)
	if _, ok := sl.mshr.Lookup(m.Line); !ok {
		return false, false
	}
	host.countReply(m.Kind)
	sl.cache.Insert(m.Line, 0, false)
	for _, tgt := range sl.mshr.Release(m.Line) {
		if tgt.Warp >= 0 {
			tgt.owner.SM.LoadDone(tgt.Warp)
		}
		if tgt.Remote >= 0 {
			host.send(Msg{Type: MsgReply, Line: m.Line, Requester: tgt.Remote, Kind: ReplyRemoteHit, Born: tgt.Born, Acct: tgt.Acct},
				tgt.Remote, noc.ClassReply, noc.PrioGPU, host.sys.gpuReplyFlits)
		}
	}
	return true, true
}

// Tick services each slice (one access per cycle per slice) and runs
// the DynEB mode controller.
func (c *Cluster) Tick() {
	if c.shared {
		for _, sl := range c.slices {
			c.serveSlice(sl)
		}
	}
	if c.org == config.L1DynEB {
		c.dynEB()
	}
}

func (c *Cluster) serveSlice(sl *slice) {
	if len(sl.q) == 0 {
		return
	}
	req := sl.q[0]
	if hit, _, way := sl.cache.Probe(req.line); hit {
		sl.cache.CommitHit(way)
		c.Stats.SliceHits++
		req.core.SM.LoadDone(req.warp)
		sl.q, _ = fifo.PopFront(sl.q)
		return
	}
	sl.cache.RecordMiss()
	c.Stats.SliceMisses++
	req.core.Stats.L1ReadMisses++
	if _, out := sl.mshr.Lookup(req.line); out {
		sl.mshr.Merge(req.line, clusterTarget(req))
		sl.q, _ = fifo.PopFront(sl.q)
		return
	}
	if sl.mshr.FullNow() || sl.host.reqFree() < 1 {
		return // head-of-line stall until resources free up
	}
	c.sys.sampleLocality(req.core, req.line)
	sl.mshr.Allocate(req.line, clusterTarget(req))
	sl.host.sendLLCRead(req.line, sl.host.Node, false, c.sys.cycle, NetAcct{})
	sl.q, _ = fifo.PopFront(sl.q)
}

// dynEB samples one epoch of each organisation, then commits to the one
// that achieved higher instruction throughput for the rest of the
// 8-epoch window — the effective-bandwidth selection of [29].
func (c *Cluster) dynEB() {
	now := c.sys.cycle
	if now-c.epochStart < c.epochLen {
		return
	}
	insts := int64(0)
	for _, g := range c.cores {
		insts += g.SM.Insts
	}
	delta := float64(insts - c.instsAt)
	c.instsAt = insts
	c.epochStart = now
	switch c.phase {
	case 0:
		c.scorePriv = delta
		c.setShared(true)
	case 1:
		c.scoreShared = delta
		c.setShared(c.scoreShared >= c.scorePriv)
	}
	c.phase = (c.phase + 1) % 8
	if c.phase == 0 {
		c.setShared(false) // next window starts by sampling private
	}
}

func (c *Cluster) setShared(on bool) {
	if c.shared == on {
		return
	}
	c.shared = on
	c.Stats.ModeSwitches++
	// Organisation switches flush both structures (software coherence).
	for _, sl := range c.slices {
		sl.cache.InvalidateAll()
	}
	for _, g := range c.cores {
		g.l1.InvalidateAll()
		g.SM.Unblock() // accesses take the other organisation's path now
	}
}

// ResetStats zeroes the measurement counters (end of warmup).
func (c *Cluster) ResetStats() {
	c.Stats = ClusterStats{}
	for _, sl := range c.slices {
		sl.cache.ResetStats()
		sl.mshr.ResetStats()
	}
}

// clusterTarget packs a slice request into an MSHR target that
// remembers which core's warp is waiting.
func clusterTarget(r sliceReq) mshrTarget {
	return mshrTarget{Warp: r.warp, Remote: -1, owner: r.core}
}

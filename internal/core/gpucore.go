package core

import (
	"delrep/internal/cache"
	"delrep/internal/fifo"
	"delrep/internal/gpu"
	"delrep/internal/noc"
)

// outboxCap bounds per-class pending sends at a core; Access refuses
// with AccessOutboxFull when the request outbox is full,
// back-pressuring the SM.
const outboxCap = 16

// mshrTarget identifies who is waiting on an outstanding L1 miss:
// a local warp (Warp >= 0) or a remote requester node (Remote >= 0,
// a delayed hit being forwarded on fill). For shared-slice misses,
// owner names the core whose warp is waiting (nil means the MSHR's own
// core).
type mshrTarget struct {
	Warp   int
	Remote int
	Born   int64
	Acct   NetAcct
	owner  *GPUCore
}

// probeState tracks an in-flight Realistic Probing episode for a line.
type probeState struct {
	awaiting int  // nacks still expected
	got      bool // a probe hit arrived (or LLC fallback already sent)
}

// GPUCoreStats aggregates per-core counters for the evaluation figures.
type GPUCoreStats struct {
	L1Accesses   int64
	L1ReadMisses int64
	Writes       int64
	// Reply breakdown at the requester (Figure 14).
	RepliesLLCHit     int64
	RepliesDRAM       int64
	RepliesRemoteHit  int64
	RepliesRemoteMiss int64
	// FRQ service at the sharer.
	FRQRemoteHits   int64
	FRQDelayedHits  int64
	FRQRemoteMisses int64
	FRQSameLine     int64 // entries accessing a line already in the FRQ
	// Realistic Probing.
	ProbesSent    int64
	ProbeHits     int64
	ProbeNacks    int64
	ProbeFallback int64
}

// GPUCore is one GPU node: the SM plus its L1 organisation, MSHRs,
// Forwarded Request Queue, outboxes, and (when enabled) the Realistic
// Probing engine. It implements gpu.MemPort.
type GPUCore struct {
	sys  *System
	Node int
	Idx  int // index among GPU cores
	SM   *gpu.SM

	l1        *cache.Cache
	mshr      *cache.MSHR[mshrTarget]
	frq       []*noc.Packet
	outWrites int
	budget    int // L1 port budget, reset each cycle

	outReq []*noc.Packet
	outRep []*noc.Packet

	cluster *Cluster // non-nil when a shared L1 organisation is active

	// Realistic Probing state.
	rpEwma       float64
	rpMissCount  int64
	rpPending    map[cache.Addr]*probeState
	probeTargets []int // nearest GPU node ids, by hop distance

	Stats GPUCoreStats
}

func newGPUCore(sys *System, node, idx int) *GPUCore {
	g := &GPUCore{
		sys:  sys,
		Node: node,
		Idx:  idx,
		l1: cache.New(cache.Config{
			SizeBytes: sys.Cfg.GPU.L1Bytes,
			Assoc:     sys.Cfg.GPU.L1Assoc,
			LineBytes: sys.Cfg.GPU.L1LineBytes,
		}),
		mshr:      cache.NewMSHR[mshrTarget](sys.Cfg.GPU.L1MSHRs),
		rpPending: make(map[cache.Addr]*probeState),
	}
	// Queue backing arrays are preallocated to their capacities; the
	// steady-state tick path pops and appends without reallocating.
	g.outReq = make([]*noc.Packet, 0, outboxCap)
	g.outRep = make([]*noc.Packet, 0, outboxCap)
	g.frq = make([]*noc.Packet, 0, sys.Cfg.GPU.FRQEntries)
	return g
}

// BeginCycle resets per-cycle resource budgets.
func (g *GPUCore) BeginCycle() {
	g.budget = g.sys.Cfg.GPU.IssueWidth
}

// Access implements gpu.MemPort: the SM's path into the L1 organisation.
func (g *GPUCore) Access(sm int, line cache.Addr, write bool, warp int) gpu.AccessResult {
	if g.cluster != nil && g.cluster.Shared() {
		return g.cluster.Access(g, line, write, warp)
	}
	return g.accessPrivate(line, write, warp)
}

// accessPrivate is the private-L1 path. Its named refusals depend only
// on the L1 tags, the MSHR file, outWrites and the request outbox, and
// mutate nothing: the resource's note* call and the line wake in
// Allocate and fillAndWake tell the SM when one may lapse (the table
// is DESIGN.md §9). An exhausted port budget refills next cycle on its
// own, so that refusal is AccessBusy.
func (g *GPUCore) accessPrivate(line cache.Addr, write bool, warp int) gpu.AccessResult {
	if g.budget <= 0 {
		return gpu.AccessBusy
	}
	if write {
		return g.writeThrough(line)
	}
	if hit, _, way := g.l1.Probe(line); hit {
		g.budget--
		g.Stats.L1Accesses++
		g.l1.CommitHit(way) // record the hit and update LRU
		return gpu.AccessHit
	}
	if _, out := g.mshr.Lookup(line); out {
		g.budget--
		g.Stats.L1Accesses++
		g.Stats.L1ReadMisses++
		g.l1.RecordMiss()
		g.mshr.Merge(line, mshrTarget{Warp: warp, Remote: -1})
		return gpu.AccessMiss
	}
	if g.mshr.FullNow() {
		return gpu.AccessMSHRFull
	}
	if len(g.outReq) >= outboxCap {
		return gpu.AccessOutboxFull
	}
	g.budget--
	g.Stats.L1Accesses++
	g.Stats.L1ReadMisses++
	g.l1.RecordMiss()
	g.sys.sampleLocality(g, line)
	g.mshr.Allocate(line, mshrTarget{Warp: warp, Remote: -1})
	g.noteMSHR()
	g.SM.UnblockLine(line) // a refused read of this line now merges
	if g.sys.isRP() && g.predictProbe() {
		g.sendProbes(line)
	} else {
		g.sendLLCRead(line, g.Node, false, g.sys.cycle, NetAcct{})
	}
	return gpu.AccessMiss
}

// writeThrough performs a write-through, no-write-allocate store.
func (g *GPUCore) writeThrough(line cache.Addr) gpu.AccessResult {
	if g.outWrites >= g.sys.Cfg.GPU.MaxOutWrites {
		return gpu.AccessStoresFull
	}
	if len(g.outReq) >= outboxCap {
		return gpu.AccessOutboxFull
	}
	g.budget--
	g.Stats.L1Accesses++
	g.Stats.Writes++
	// The local copy is updated in place (write-through keeps it clean).
	g.outWrites++
	g.noteStores()
	g.send(Msg{Type: MsgGPUWrite, Line: line, Requester: g.Node},
		g.sys.memNodeFor(line), noc.ClassRequest, noc.PrioGPU, g.sys.writeFlits)
	return gpu.AccessHit
}

// sendLLCRead issues a read request to the line's memory node on behalf
// of requester (which differs from g.Node on the DNF remote-miss path).
func (g *GPUCore) sendLLCRead(line cache.Addr, requester int, dnf bool, born int64, acct NetAcct) {
	prio := noc.PrioGPU
	if dnf {
		prio = noc.PrioRemote
	}
	g.send(Msg{Type: MsgGPURead, Line: line, Requester: requester, DNF: dnf, Born: born, Acct: acct},
		g.sys.memNodeFor(line), noc.ClassRequest, prio, 1)
}

// send queues a packet on the class outbox (drained in Tick). The
// message value is materialized through the System free list.
func (g *GPUCore) send(m Msg, dst int, class noc.Class, prio noc.Priority, flits int) {
	p := g.sys.newPacket(g.Node, dst, class, prio, flits, g.sys.al.msgOf(m))
	if class == noc.ClassRequest {
		g.outReq = append(g.outReq, p)
		g.noteOutbox()
	} else {
		g.outRep = append(g.outRep, p)
	}
}

// noteMSHR, noteOutbox and noteStores report whether the MSHR file,
// the request outbox and the store budget are exhausted to the SM; each
// is called wherever its resource's occupancy changes, so a warp
// refused for it waits exactly while it stays full.
func (g *GPUCore) noteMSHR()   { g.SM.SetFull(gpu.MSHRFile, g.mshr.FullNow()) }
func (g *GPUCore) noteOutbox() { g.SM.SetFull(gpu.RequestOutbox, len(g.outReq) >= outboxCap) }
func (g *GPUCore) noteStores() {
	g.SM.SetFull(gpu.StoreBudget, g.outWrites >= g.sys.Cfg.GPU.MaxOutWrites)
}

// reqFree and repFree report remaining outbox capacity.
func (g *GPUCore) reqFree() int { return outboxCap - len(g.outReq) }
func (g *GPUCore) repFree() int { return outboxCap - len(g.outRep) }

// HandlePacket consumes an ejected packet; returning false leaves it
// queued at the NI (back-pressure).
func (g *GPUCore) HandlePacket(p *noc.Packet) bool {
	m := p.Payload.(*Msg)
	m.absorbPacket(p)
	switch m.Type {
	case MsgDelegated:
		for _, q := range g.frq {
			if q.Payload.(*Msg).Line == m.Line {
				g.Stats.FRQSameLine++
				break
			}
		}
		if len(g.frq) >= g.sys.Cfg.GPU.FRQEntries {
			return false
		}
		g.frq = append(g.frq, p)
		return true
	case MsgProbe:
		if g.handleProbe(m) {
			g.sys.al.retire(p)
			return true
		}
		return false
	case MsgProbeNack:
		g.handleProbeNack(m)
		g.sys.al.retire(p)
		return true
	case MsgReply:
		if g.handleReply(m) {
			g.sys.al.retire(p)
			return true
		}
		return false
	case MsgWriteAck:
		g.outWrites--
		g.noteStores()
		g.sys.al.retire(p)
		return true
	}
	panic("core: unexpected message at GPU core: " + m.Type.String())
}

// handleProbe answers an RP probe against the local L1 organisation.
func (g *GPUCore) handleProbe(m *Msg) bool {
	if g.budget <= 0 {
		return false
	}
	g.budget--
	hit := g.probeLocal(m.Line)
	if hit {
		g.send(Msg{Type: MsgReply, Line: m.Line, Requester: m.Requester, Kind: ReplyProbeHit, Born: m.Born, Acct: m.Acct},
			m.Requester, noc.ClassReply, noc.PrioGPU, g.sys.gpuReplyFlits)
	} else {
		g.send(Msg{Type: MsgProbeNack, Line: m.Line, Requester: m.Requester, Born: m.Born, Acct: m.Acct},
			m.Requester, noc.ClassReply, noc.PrioGPU, 1)
	}
	return true
}

// probeLocal checks whether the line is resident locally (private L1 or
// the cluster's shared slices) without disturbing replacement state.
func (g *GPUCore) probeLocal(line cache.Addr) bool {
	if g.cluster != nil && g.cluster.Shared() {
		return g.cluster.Probe(line)
	}
	hit, _ := g.l1.Peek(line)
	return hit
}

// handleProbeNack accounts a probe miss; when every probe missed and no
// data arrived, the miss falls back to the LLC.
func (g *GPUCore) handleProbeNack(m *Msg) bool {
	ps := g.rpPending[m.Line]
	if ps == nil {
		return true // episode already resolved by a data reply
	}
	if !ps.got && ps.awaiting == 1 {
		// The fallback must not block reply-network ejection (protocol
		// deadlock); outboxes accept handler-side pushes unconditionally.
		g.Stats.ProbeFallback++
		g.sendLLCRead(m.Line, g.Node, false, m.Born, m.Acct)
		ps.got = true
		g.updateRP(false) // the whole episode missed: train once
	}
	g.Stats.ProbeNacks++
	ps.awaiting--
	if ps.awaiting <= 0 {
		delete(g.rpPending, m.Line)
	}
	return true
}

// handleReply fills the line and wakes every merged target. Handler-side
// sends (delayed-hit forwards) are pushed unconditionally: refusing a
// reply-network ejection while waiting on other network resources would
// create a protocol deadlock cycle.
func (g *GPUCore) handleReply(m *Msg) bool {
	if g.cluster != nil {
		if handled, done := g.cluster.HandleFill(g, m); handled {
			return done
		}
	}
	if _, ok := g.mshr.Lookup(m.Line); !ok {
		// Duplicate reply (RP can receive several probe hits); drop.
		return true
	}
	if m.Kind == ReplyProbeHit {
		if ps := g.rpPending[m.Line]; ps != nil && !ps.got {
			ps.got = true
			g.updateRP(true) // train once per successful episode
		}
		g.Stats.ProbeHits++
	}
	g.countReply(m.Kind)
	g.sys.recordLoadLat(m.Kind, g.sys.cycle-m.Born)
	g.sys.recordLoadBreak(m.Kind, g.sys.cycle-m.Born, &m.Acct)
	g.fillAndWake(m.Line)
	return true
}

// fillAndWake inserts the line into the L1 and releases the MSHR entry,
// waking local warps and forwarding delayed-hit replies.
func (g *GPUCore) fillAndWake(line cache.Addr) {
	g.l1.Insert(line, 0, false)
	g.SM.UnblockLine(line) // a refused read of this line now hits
	targets := g.mshr.Release(line)
	g.noteMSHR()
	for _, tgt := range targets {
		if tgt.Warp >= 0 {
			g.SM.LoadDone(tgt.Warp)
		}
		if tgt.Remote >= 0 {
			g.Stats.FRQDelayedHits++
			g.send(Msg{Type: MsgReply, Line: line, Requester: tgt.Remote, Kind: ReplyRemoteHit, Born: tgt.Born, Acct: tgt.Acct},
				tgt.Remote, noc.ClassReply, noc.PrioGPU, g.sys.gpuReplyFlits)
		}
	}
}

func (g *GPUCore) countReply(k ReplyKind) {
	switch k {
	case ReplyLLCHit:
		g.Stats.RepliesLLCHit++
	case ReplyDRAM:
		g.Stats.RepliesDRAM++
	case ReplyRemoteHit, ReplyProbeHit:
		g.Stats.RepliesRemoteHit++
	case ReplyRemoteMiss:
		g.Stats.RepliesRemoteMiss++
	}
}

// Tick drains the outboxes, serves the FRQ (remote requests have
// priority over local ones: the deadlock-avoidance rule of Section IV),
// and issues SM instructions.
func (g *GPUCore) Tick() {
	g.drainOutbox()
	g.serveFRQ()
	g.SM.Tick()
}

func (g *GPUCore) drainOutbox() {
	reqNI := g.sys.reqNI(g.Node)
	for len(g.outReq) > 0 && reqNI.CanInject(noc.ClassRequest) {
		if !reqNI.Inject(g.outReq[0]) {
			break
		}
		g.outReq, _ = fifo.PopFront(g.outReq)
		g.noteOutbox()
	}
	repNI := g.sys.repNI(g.Node)
	for len(g.outRep) > 0 && repNI.CanInject(noc.ClassReply) {
		if !repNI.Inject(g.outRep[0]) {
			break
		}
		g.outRep, _ = fifo.PopFront(g.outRep)
	}
}

// serveFRQ processes delegated replies against the local L1 (or the
// cluster's shared slice, in Cluster.ServeRemote): a hit sends the line
// to the requester, a hit on an outstanding miss merges into the MSHR
// (delayed hit), and a miss re-sends the request to the LLC with the
// DNF bit set, without allocating a local MSHR entry.
func (g *GPUCore) serveFRQ() {
	for g.budget > 0 && len(g.frq) > 0 {
		p := g.frq[0]
		m := p.Payload.(*Msg)
		if g.cluster != nil && g.cluster.Shared() {
			if !g.cluster.ServeRemote(g, m) {
				return
			}
		} else if hit, _ := g.l1.Peek(m.Line); hit {
			if g.repFree() < 1 {
				return
			}
			g.Stats.FRQRemoteHits++
			g.send(Msg{Type: MsgReply, Line: m.Line, Requester: m.Requester, Kind: ReplyRemoteHit, Born: m.Born, Acct: m.Acct},
				m.Requester, noc.ClassReply, noc.PrioGPU, g.sys.gpuReplyFlits)
		} else if _, out := g.mshr.Lookup(m.Line); out {
			// Delayed hit: forward when the fill returns.
			g.mshr.Merge(m.Line, mshrTarget{Warp: -1, Remote: m.Requester, Born: m.Born, Acct: m.Acct})
		} else {
			// Remote miss: the DNF re-send must not wait on outbox
			// space — stalling the FRQ here wedges the delegated path
			// (FRQ full -> ejection refused -> request network backed
			// up -> memory nodes unable to delegate).
			g.Stats.FRQRemoteMisses++
			g.sendLLCRead(m.Line, m.Requester, true, m.Born, m.Acct)
		}
		g.budget--
		g.frq, _ = fifo.PopFront(g.frq)
		g.sys.al.retire(p)
	}
}

// predictProbe decides whether a miss should probe remote L1s (the
// "realistic" predictor of RP [31]): probe when the recent success rate
// clears the threshold, with periodic sampling to keep training.
func (g *GPUCore) predictProbe() bool {
	g.rpMissCount++
	if g.rpMissCount%int64(g.sys.Cfg.RP.SampleEvery) == 0 {
		return true
	}
	return g.rpEwma > g.sys.Cfg.RP.PredThreshold
}

const rpAlpha = 0.05

func (g *GPUCore) updateRP(hit bool) {
	v := 0.0
	if hit {
		v = 1
	}
	g.rpEwma = (1-rpAlpha)*g.rpEwma + rpAlpha*v
}

// sendProbes fans a probe out to the nearest remote L1s; if the outbox
// cannot hold a single probe the miss goes straight to the LLC.
func (g *GPUCore) sendProbes(line cache.Addr) {
	n := g.sys.Cfg.RP.ProbeFanout
	if n > len(g.probeTargets) {
		n = len(g.probeTargets)
	}
	if n == 0 || g.reqFree() < n {
		g.sendLLCRead(line, g.Node, false, g.sys.cycle, NetAcct{})
		return
	}
	g.rpPending[line] = &probeState{awaiting: n}
	for i := 0; i < n; i++ {
		g.Stats.ProbesSent++
		g.send(Msg{Type: MsgProbe, Line: line, Requester: g.Node, Born: g.sys.cycle},
			g.probeTargets[i], noc.ClassRequest, noc.PrioGPU, 1)
	}
}

// FlushL1 invalidates the local L1 (kernel-boundary software coherence).
// Invalidation cannot turn a refusal into an acceptance; the Unblock is
// a conservative wake at a rare event.
func (g *GPUCore) FlushL1() {
	g.l1.InvalidateAll()
	g.SM.Unblock()
}

// ResetStats zeroes the measurement counters (end of warmup).
func (g *GPUCore) ResetStats() {
	g.Stats = GPUCoreStats{}
	g.l1.ResetStats()
	g.mshr.ResetStats()
	g.SM.ResetStats()
}

package core

import (
	"delrep/internal/cache"
	"delrep/internal/dram"
	"delrep/internal/fifo"
	"delrep/internal/noc"
)

// MemNodeStats aggregates per-memory-node counters.
type MemNodeStats struct {
	Requests      int64
	LLCHits       int64
	LLCMisses     int64
	Writes        int64
	Delegations   int64
	BlockedCycles int64 // cycles the reply injection buffer was full
	RefusedCycles int64 // cycles at least one request was refused
}

// replyTarget is who waits on an outstanding LLC miss.
type replyTarget struct {
	Node int
	CPU  bool
	Born int64
	Acct NetAcct
}

// MemNode is one memory node: an LLC slice whose lines carry a core
// pointer to the GPU core that last accessed them, a GDDR5 memory
// controller, a write-back buffer, and the Delegated Replies engine
// that converts stuck replies into 1-flit delegated requests when the
// reply network clogs.
type MemNode struct {
	sys  *System
	Node int
	Idx  int

	llc   *cache.Cache
	mshr  *cache.MSHR[replyTarget]
	mc    *dram.Controller
	wbQ   []cache.Addr // dirty victims awaiting DRAM write
	compQ []cache.Addr // lines DRAM filled, awaiting reply injection

	llcQuota int
	refused  bool

	Stats MemNodeStats
}

const wbQCap = 64

func newMemNode(sys *System, node, idx int) *MemNode {
	return &MemNode{
		sys:  sys,
		Node: node,
		Idx:  idx,
		llc: cache.New(cache.Config{
			SizeBytes: sys.Cfg.LLC.SliceBytes,
			Assoc:     sys.Cfg.LLC.Assoc,
			LineBytes: sys.Cfg.LLC.LineBytes,
		}),
		mshr:  cache.NewMSHR[replyTarget](sys.Cfg.LLC.MSHRs),
		mc:    dram.New(sys.Cfg.DRAM),
		wbQ:   make([]cache.Addr, 0, wbQCap),
		compQ: make([]cache.Addr, 0, wbQCap),
	}
}

// beginQuota resets the per-cycle LLC port budget (System.begin).
func (m *MemNode) beginQuota() {
	m.llcQuota = 1
	m.refused = false
}

// sampleBlocked samples reply-injection-buffer blocking (the paper's
// clogging metric). It reads NI occupancy as it stands before the
// network phase, so it runs in System.begin, ahead of the compute
// dispatch.
func (m *MemNode) sampleBlocked() {
	if m.sys.repNI(m.Node).Full(noc.ClassReply) {
		m.Stats.BlockedCycles++
	}
}

// pointerOf converts an LLC aux value to a node id (-1 when invalid).
func pointerOf(aux uint32) int {
	if aux == 0 {
		return -1
	}
	return int(aux - 1)
}

// auxOf converts a GPU node id to an LLC aux value.
func auxOf(node int) uint32 { return uint32(node + 1) }

// HandlePacket consumes a request; returning false back-pressures the
// NoC (the memory node is blocked).
func (m *MemNode) HandlePacket(p *noc.Packet) bool {
	msg := p.Payload.(*Msg)
	msg.absorbPacket(p)
	switch msg.Type {
	case MsgGPURead, MsgCPURead:
		if m.handleRead(msg) {
			m.sys.al.retire(p)
			return true
		}
		return false
	case MsgGPUWrite:
		if m.handleWrite(msg) {
			m.sys.al.retire(p)
			return true
		}
		return false
	}
	panic("core: unexpected message at memory node: " + msg.Type.String())
}

func (m *MemNode) handleRead(msg *Msg) bool {
	if m.llcQuota <= 0 {
		m.refuse()
		return false
	}
	isCPU := msg.Type == MsgCPURead
	repNI := m.sys.repNI(m.Node)
	if hit, aux, way := m.llc.Probe(msg.Line); hit {
		// An LLC hit needs injection-buffer space for its reply; a full
		// buffer blocks the memory node (the clogging mechanism).
		if !repNI.CanInject(noc.ClassReply) {
			m.refuse()
			return false
		}
		m.llcQuota--
		m.Stats.Requests++
		m.Stats.LLCHits++
		m.llc.CommitHit(way)
		kind := ReplyLLCHit
		if msg.DNF {
			kind = ReplyRemoteMiss
		}
		sharer := pointerOf(aux)
		if !isCPU {
			m.llc.SetAux(msg.Line, auxOf(msg.Requester))
		}
		m.injectReply(msg.Line, msg.Requester, isCPU, kind, sharer, msg.DNF, msg.Born, msg.Acct)
		return true
	}
	// LLC miss: allocate an MSHR and go to DRAM.
	if _, out := m.mshr.Lookup(msg.Line); out {
		m.llcQuota--
		m.Stats.Requests++
		m.Stats.LLCMisses++
		m.llc.RecordMiss()
		m.mshr.Merge(msg.Line, replyTarget{Node: msg.Requester, CPU: isCPU, Born: msg.Born, Acct: msg.Acct})
		return true
	}
	if m.mshr.FullNow() || !m.mc.CanAccept() || len(m.wbQ) >= wbQCap {
		m.refuse()
		return false
	}
	m.llcQuota--
	m.Stats.Requests++
	m.Stats.LLCMisses++
	m.llc.RecordMiss()
	m.mshr.Allocate(msg.Line, replyTarget{Node: msg.Requester, CPU: isCPU, Born: msg.Born, Acct: msg.Acct})
	m.mc.Enqueue(dram.Request{Line: msg.Line, Arrived: m.sys.cycle})
	return true
}

// handleWrite applies a write-through store: update the LLC copy if
// present (invalidating its core pointer so stale remote copies are
// never delegated to), otherwise write to DRAM; then acknowledge.
func (m *MemNode) handleWrite(msg *Msg) bool {
	if m.llcQuota <= 0 {
		m.refuse()
		return false
	}
	repNI := m.sys.repNI(m.Node)
	if !repNI.CanInject(noc.ClassReply) {
		m.refuse()
		return false
	}
	if hit, _, way := m.llc.Probe(msg.Line); hit {
		m.llc.CommitHit(way)
		m.llc.Insert(msg.Line, 0, true) // update in place, pointer invalidated
	} else {
		if !m.mc.CanAccept() {
			m.refuse()
			return false
		}
		m.llc.RecordMiss()
		m.mc.Enqueue(dram.Request{Line: msg.Line, Write: true, Arrived: m.sys.cycle})
	}
	m.llcQuota--
	m.Stats.Requests++
	m.Stats.Writes++
	ack := m.sys.newPacket(m.Node, msg.Requester, noc.ClassReply, noc.PrioGPU, 1,
		m.sys.al.msgOf(Msg{Type: MsgWriteAck, Line: msg.Line, Requester: msg.Requester, Acct: msg.Acct}))
	ack.ReadyAt = m.sys.cycle + int64(m.sys.Cfg.LLC.Latency)
	repNI.Inject(ack)
	return true
}

func (m *MemNode) refuse() {
	if !m.refused {
		m.refused = true
		m.Stats.RefusedCycles++
	}
}

// injectReply builds and queues a data reply. Callers verified space.
func (m *MemNode) injectReply(line cache.Addr, dst int, isCPU bool, kind ReplyKind, sharer int, dnf bool, born int64, acct NetAcct) {
	flits := m.sys.gpuReplyFlits
	prio := noc.PrioGPU
	if isCPU {
		flits = m.sys.cpuReplyFlits
		prio = noc.PrioCPU
	}
	msg := m.sys.al.msgOf(Msg{Type: MsgReply, Line: line, Requester: dst, Kind: kind, Sharer: sharer, DNF: dnf, Born: born, Acct: acct})
	p := m.sys.newPacket(m.Node, dst, noc.ClassReply, prio, flits, msg)
	p.ReadyAt = m.sys.cycle + int64(m.sys.Cfg.LLC.Latency)
	m.sys.repNI(m.Node).Inject(p)
}

// Tick advances DRAM, drains completions and write-backs, and runs the
// delegation engine.
func (m *MemNode) Tick() {
	// DRAM completions fill the LLC and produce replies. The controller
	// keys every decision off absolute cycle numbers, so ticking it only
	// while requests are outstanding is behaviour-preserving.
	if m.mc.Outstanding() > 0 {
		for _, r := range m.mc.Tick(m.sys.cycle) {
			if r.Write {
				continue
			}
			m.compQ = append(m.compQ, r.Line)
		}
	}
	if len(m.compQ) > 0 {
		m.drainCompletions()
	}
	if len(m.wbQ) > 0 {
		m.drainWriteBacks()
	}
	if m.sys.isDelegated() {
		m.delegate()
	}
}

// drainCompletions turns DRAM fills into replies as injection space
// allows. Fills insert into the LLC with the pointer set to the last
// GPU requester (allocate-on-miss).
func (m *MemNode) drainCompletions() {
	repNI := m.sys.repNI(m.Node)
	for len(m.compQ) > 0 {
		line := m.compQ[0]
		entry, ok := m.mshr.Lookup(line)
		if !ok {
			m.compQ, _ = fifo.PopFront(m.compQ)
			continue // duplicate completion; nothing outstanding
		}
		if repNI.InjCap(noc.ClassReply)-repNI.InjLen(noc.ClassReply) < len(entry.Targets) {
			return // not enough injection space for all merged replies
		}
		if len(m.wbQ) >= wbQCap {
			return
		}
		aux := uint32(0)
		for _, tgt := range entry.Targets {
			if !tgt.CPU {
				aux = auxOf(tgt.Node)
			}
		}
		if victim, dirty, evicted := m.llc.Insert(line, aux, false); evicted && dirty {
			m.wbQ = append(m.wbQ, victim)
		}
		for _, tgt := range m.mshr.Release(line) {
			m.injectReply(line, tgt.Node, tgt.CPU, ReplyDRAM, -1, false, tgt.Born, tgt.Acct)
		}
		m.compQ, _ = fifo.PopFront(m.compQ)
	}
}

func (m *MemNode) drainWriteBacks() {
	for len(m.wbQ) > 0 && m.mc.CanAccept() {
		m.mc.Enqueue(dram.Request{Line: m.wbQ[0], Write: true, Arrived: m.sys.cycle})
		m.wbQ, _ = fifo.PopFront(m.wbQ)
	}
}

// delegate converts stuck delegatable replies in the injection buffer
// into 1-flit delegated requests on the (under-utilized) request
// network, sent to the core pointer captured when the reply was built.
// Delegation triggers only when the reply network cannot accept traffic
// (buffer full or head stalled), matching the paper's policy of not
// exposing cores to delegation latency needlessly.
func (m *MemNode) delegate() {
	repNI := m.sys.repNI(m.Node)
	if !m.sys.Cfg.DelRep.AlwaysDelegate &&
		!repNI.Blocked(noc.ClassReply) && !repNI.Full(noc.ClassReply) {
		return
	}
	reqNI := m.sys.reqNI(m.Node)
	budget := m.sys.Cfg.DelRep.MaxDelegationsPerCycle
	q := repNI.PeekQueue(noc.ClassReply)
	for i := 0; i < len(q) && budget > 0; i++ {
		msg, ok := q[i].Payload.(*Msg)
		if !ok || !m.delegatable(msg) {
			continue
		}
		if !reqNI.CanInject(noc.ClassRequest) {
			return
		}
		stuck := repNI.RemoveQueued(noc.ClassReply, i)
		q = repNI.PeekQueue(noc.ClassReply)
		i--
		acct := msg.Acct
		wStart := stuck.Enqueued
		if stuck.ReadyAt > wStart {
			wStart = stuck.ReadyAt
		}
		if w := m.sys.cycle - wStart; w > 0 {
			acct.DelegWait += w
		}
		acct.Delegs++
		d := m.sys.newPacket(m.Node, msg.Sharer, noc.ClassRequest, noc.PrioRemote, 1,
			m.sys.al.msgOf(Msg{Type: MsgDelegated, Line: msg.Line, Requester: msg.Requester, Sharer: msg.Sharer, Born: msg.Born, Acct: acct}))
		m.sys.noteDelegated(stuck, d)
		reqNI.Inject(d)
		// The stuck reply was consumed by the delegation (the observer
		// copied its trace); it dies here.
		m.sys.al.retire(stuck)
		m.Stats.Delegations++
		budget--
	}
}

// delegatable implements the paper's test: a GPU read reply served by
// an LLC hit, whose pointer names a valid core other than the
// requester, and which is not a DNF re-reply (never re-forward).
func (m *MemNode) delegatable(msg *Msg) bool {
	return msg.Type == MsgReply &&
		msg.Kind == ReplyLLCHit &&
		!msg.DNF &&
		msg.Sharer >= 0 &&
		msg.Sharer != msg.Requester
}

// FlushPointers invalidates every core pointer in the slice (used when
// GPU L1s are flushed at kernel boundaries).
func (m *MemNode) FlushPointers() { m.llc.ClearAux() }

// ResetStats zeroes the measurement counters (end of warmup).
func (m *MemNode) ResetStats() {
	m.Stats = MemNodeStats{}
	m.llc.ResetStats()
	m.mc.ResetStats()
}

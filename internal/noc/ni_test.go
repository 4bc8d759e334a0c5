package noc

import (
	"testing"
)

// memNet builds a network where node 2 is a memory node with a small
// reply injection buffer.
func memNet(t *testing.T) *Network {
	t.Helper()
	net := NewNetwork("t", meshTopo(), defaultNoC(), 64, Params{
		InjCapCore: 8, InjCapMem: 3, EjCap: 24, AsmCap: 4,
		MemNodes: map[int]bool{2: true},
	})
	for n := 0; n < 64; n++ {
		net.NI(n).Handler = func(p *Packet) bool { return true }
	}
	return net
}

func TestMemNodeReplyBufferCapacity(t *testing.T) {
	net := memNet(t)
	ni := net.NI(2)
	if ni.InjCap(ClassReply) != 3 {
		t.Fatalf("reply cap = %d", ni.InjCap(ClassReply))
	}
	if ni.InjCap(ClassRequest) != 8 {
		t.Fatalf("request cap = %d", ni.InjCap(ClassRequest))
	}
	for i := 0; i < 3; i++ {
		if !ni.Inject(&Packet{ID: uint64(i), Src: 2, Dst: 5, Class: ClassReply, SizeFlits: 9}) {
			t.Fatalf("inject %d failed", i)
		}
	}
	if ni.CanInject(ClassReply) || !ni.Full(ClassReply) {
		t.Fatal("reply buffer should be full")
	}
	if ni.Inject(&Packet{ID: 9, Src: 2, Dst: 5, Class: ClassReply, SizeFlits: 9}) {
		t.Fatal("inject succeeded on full buffer")
	}
	if !ni.CanInject(ClassRequest) {
		t.Fatal("request queue should be independent")
	}
}

func TestRemoveQueuedForDelegation(t *testing.T) {
	net := memNet(t)
	ni := net.NI(2)
	a := &Packet{ID: 1, Src: 2, Dst: 5, Class: ClassReply, SizeFlits: 9}
	b := &Packet{ID: 2, Src: 2, Dst: 6, Class: ClassReply, SizeFlits: 9}
	c := &Packet{ID: 3, Src: 2, Dst: 7, Class: ClassReply, SizeFlits: 9}
	ni.Inject(a)
	ni.Inject(b)
	ni.Inject(c)
	got := ni.RemoveQueued(ClassReply, 1)
	if got != b {
		t.Fatal("wrong packet removed")
	}
	if q := ni.PeekQueue(ClassReply); len(q) != 2 || q[0] != a || q[1] != c {
		t.Fatalf("queue after removal: %v", q)
	}
	if !ni.CanInject(ClassReply) {
		t.Fatal("removal should free space")
	}
}

func TestReadyAtDelaysInjection(t *testing.T) {
	net := memNet(t)
	ni := net.NI(2)
	p := &Packet{ID: 1, Src: 2, Dst: 5, Class: ClassReply, SizeFlits: 1, ReadyAt: 20}
	ni.Inject(p)
	for i := 0; i < 10; i++ {
		net.Tick()
	}
	if p.Injected != 0 {
		t.Fatalf("packet injected at %d before ReadyAt", p.Injected)
	}
	for i := 0; i < 30; i++ {
		net.Tick()
	}
	if p.Injected < 20 {
		t.Fatalf("packet injected at %d, ReadyAt 20", p.Injected)
	}
}

func TestBlockedFlagOnStall(t *testing.T) {
	// Saturate the local input VCs of node 2's router with a flood from
	// node 2 itself; once the VC buffers fill the NI reports Blocked.
	net := memNet(t)
	ni := net.NI(2)
	// Jam the sink and keep the reply queue topped up: once every buffer
	// between source and sink fills, the head flit cannot move and the
	// NI must report Blocked (the delegation trigger).
	net.NI(5).Handler = func(p *Packet) bool { return false }
	sawBlocked := false
	id := uint64(0)
	for i := 0; i < 4000 && !sawBlocked; i++ {
		if ni.CanInject(ClassReply) {
			id++
			ni.Inject(&Packet{ID: id, Src: 2, Dst: 5, Class: ClassReply, SizeFlits: 9})
		}
		net.Tick()
		sawBlocked = ni.Blocked(ClassReply)
	}
	if !sawBlocked {
		t.Fatal("NI never reported Blocked despite jammed sink")
	}
	if !ni.Full(ClassReply) {
		t.Fatal("injection buffer should be full under a jammed sink")
	}
}

func TestInjLenTracksQueue(t *testing.T) {
	net := memNet(t)
	ni := net.NI(3)
	ni.Inject(&Packet{ID: 1, Src: 3, Dst: 9, Class: ClassRequest, SizeFlits: 1})
	ni.Inject(&Packet{ID: 2, Src: 3, Dst: 9, Class: ClassRequest, SizeFlits: 1})
	if ni.InjLen(ClassRequest) != 2 {
		t.Fatalf("len = %d", ni.InjLen(ClassRequest))
	}
	for i := 0; i < 50; i++ {
		net.Tick()
	}
	if ni.InjLen(ClassRequest) != 0 {
		t.Fatalf("len after drain = %d", ni.InjLen(ClassRequest))
	}
}

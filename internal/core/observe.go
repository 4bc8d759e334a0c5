package core

import (
	"fmt"

	"delrep/internal/noc"
	"delrep/internal/obs"
)

// AttachObserver wires an observability layer into the system: metric
// probes over the NoC, memory nodes, and GPU cores; lifecycle tracing
// of sampled packets; and clog-detector sources at every memory node's
// reply port. Call once, after NewSystem and before running. The
// observer is strictly measurement-only — cycle counts and statistics
// are bit-identical with and without it (the determinism audit checks
// this).
func (s *System) AttachObserver(o *obs.Observer) {
	s.obs = o
	// Trace hooks dereference packets inside the network compute
	// sections, and packet IDs are only the creation sequence with one
	// shard; an observed run is therefore the one-tile, one-shard
	// partition. Digest-inert: the partition never changes results,
	// only wall time.
	if s.parallel > 1 {
		s.SetParallel(1)
	}
	o.Describe = describePayload
	s.ReqNet.TraceSink = o.PacketCompleted
	if s.RepNet != s.ReqNet {
		s.RepNet.TraceSink = o.PacketCompleted
	}
	s.registerNetProbes(o)
	s.registerMemProbes(o)
	s.registerGPUProbes(o)
	s.registerLatencyProbes(o)
	s.registerClogSources(o)
}

// describePayload renders a packet payload for trace records.
func describePayload(payload any) string {
	m, ok := payload.(*Msg)
	if !ok {
		return ""
	}
	if m.Type == MsgReply {
		return m.Type.String() + "/" + m.Kind.String()
	}
	return m.Type.String()
}

// registerNetProbes adds per-network, per-class NI injection/ejection
// flit rates (flits per cycle across all NIs).
func (s *System) registerNetProbes(o *obs.Observer) {
	nets := []struct {
		name string
		net  *noc.Network
	}{{"req", s.ReqNet}}
	if s.RepNet != s.ReqNet {
		nets = append(nets, struct {
			name string
			net  *noc.Network
		}{"rep", s.RepNet})
	} else {
		nets[0].name = "noc"
	}
	for _, n := range nets {
		net := n.net
		for _, cls := range []noc.Class{noc.ClassRequest, noc.ClassReply} {
			cls := cls
			o.Reg.Rate(fmt.Sprintf("%s/inj_flits/%s", n.name, cls),
				func() float64 { return float64(net.InjectedFlits(cls)) })
			o.Reg.Rate(fmt.Sprintf("%s/ej_flits/%s", n.name, cls),
				func() float64 { return float64(net.EjectedFlits(cls)) })
		}
	}
}

// registerMemProbes adds, per memory node: mean reply-link utilization,
// reply injection-queue depth, blocked-cycle fraction, LLC MSHR
// occupancy, reply-router queued flits, and delegation rate.
func (s *System) registerMemProbes(o *obs.Observer) {
	for _, m := range s.Mems {
		m := m
		name := fmt.Sprintf("mem%d", m.Idx)
		rtr, _ := s.RepNet.Topology().NodePort(m.Node)
		ports := s.wiredPorts(rtr)
		nports := len(ports)
		o.Reg.RatioDelta(name+"/reply_link_util",
			func() float64 {
				var sent int64
				for _, p := range ports {
					sent += s.RepNet.PortSent(rtr, p)
				}
				return float64(sent)
			},
			func() float64 { return float64(s.RepNet.MeasuredCycles() * int64(nports)) })
		o.Reg.Gauge(name+"/replyq",
			func() float64 { return float64(s.repNI(m.Node).InjLen(noc.ClassReply)) })
		o.Reg.Rate(name+"/blocked",
			func() float64 { return float64(m.Stats.BlockedCycles) })
		o.Reg.Gauge(name+"/llc_mshr",
			func() float64 { return float64(m.mshr.Len()) })
		router := s.RepNet.Routers[rtr]
		o.Reg.Gauge(name+"/router_qdepth",
			func() float64 { return float64(router.BufferedFlits()) })
		o.Reg.Rate(name+"/delegations",
			func() float64 { return float64(m.Stats.Delegations) })
	}
}

// registerGPUProbes adds aggregate GPU-side occupancy gauges.
func (s *System) registerGPUProbes(o *obs.Observer) {
	if len(s.GPUs) == 0 {
		return
	}
	o.Reg.Gauge("gpu/mshr_occ", func() float64 {
		var occ int
		for _, g := range s.GPUs {
			occ += g.mshr.Len()
		}
		return float64(occ) / float64(len(s.GPUs))
	})
	o.Reg.Gauge("gpu/frq_occ", func() float64 {
		var occ int
		for _, g := range s.GPUs {
			occ += len(g.frq)
		}
		return float64(occ)
	})
}

// registerLatencyProbes adds the windowed mean end-to-end GPU load
// latency per reply kind.
func (s *System) registerLatencyProbes(o *obs.Observer) {
	for k := ReplyLLCHit; k <= ReplyProbeHit; k++ {
		k := k
		o.Reg.RatioDelta("load_lat/"+k.String(),
			func() float64 { return s.loadLat[k].Sum() },
			func() float64 { return float64(s.loadLat[k].Count()) })
	}
}

// registerClogSources points the clog detector at every memory node's
// reply port: its outgoing reply links, bounded injection queue, and
// blocked counter.
func (s *System) registerClogSources(o *obs.Observer) {
	for _, m := range s.Mems {
		m := m
		rtr, _ := s.RepNet.Topology().NodePort(m.Node)
		var portFns []func() float64
		for _, p := range s.wiredPorts(rtr) {
			p := p
			portFns = append(portFns, func() float64 {
				return float64(s.RepNet.PortSent(rtr, p))
			})
		}
		repNI := s.repNI(m.Node)
		o.Clog.AddSource(obs.ClogSource{
			Name:    fmt.Sprintf("mem%d", m.Idx),
			Ports:   portFns,
			QLen:    func() int { return repNI.InjLen(noc.ClassReply) },
			QCap:    repNI.InjCap(noc.ClassReply),
			Blocked: func() float64 { return float64(m.Stats.BlockedCycles) },
		})
	}
}

// wiredPorts lists the inter-router output ports of a reply-network
// router (the links a memory node's replies leave on).
func (s *System) wiredPorts(rtr int) []int {
	topo := s.RepNet.Topology()
	var ports []int
	for p := 0; p < topo.NumPorts(rtr); p++ {
		if _, _, ok := topo.Wire(rtr, p); ok {
			ports = append(ports, p)
		}
	}
	return ports
}

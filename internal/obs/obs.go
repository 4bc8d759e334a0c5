// Package obs is the simulator's observability layer: windowed metric
// time series, deterministic packet-lifecycle tracing, and clog
// detection, read from the retained windows at run end. It is strictly
// measurement-only — attaching an Observer must never change simulated
// behaviour — and zero-overhead when disabled (the hooks in noc/core
// are nil checks on untraced packets).
//
// Everything reachable from Tick obeys the simulator's tick-purity
// rule: no I/O, no wall-clock, no map iteration; samples and trace
// records accumulate in preallocated memory and are flushed by the
// caller after the run via Registry.WriteCSV / WriteJSON, WriteTrace
// and Detector.Narrative.
package obs

import "delrep/internal/noc"

// ringDepth is how many windows the registry retains.
const ringDepth = 4096

// Options configures an Observer. The zero value of each field selects
// a sensible default, except TraceSample where 0 disables tracing.
type Options struct {
	// Window is the metric sampling period in cycles (default 1000).
	Window int64
	// TraceSample enables lifecycle tracing of every N-th packet
	// (packet ID modulo N — deterministic, no RNG). 0 disables tracing.
	TraceSample uint64
	// MaxTraces bounds retained trace records (default 4096); further
	// sampled packets are counted as dropped, not traced.
	MaxTraces int
	// ClogUtil is the reply-port utilization threshold above which a
	// window with growing queue occupancy is flagged (default 0.85).
	ClogUtil float64
}

func (o Options) withDefaults() Options {
	if o.Window <= 0 {
		o.Window = 1000
	}
	if o.MaxTraces <= 0 {
		o.MaxTraces = 4096
	}
	if o.ClogUtil <= 0 {
		o.ClogUtil = 0.85
	}
	return o
}

// TraceRecord is one completed packet lifecycle, flattened from the
// live noc.PacketTrace at ejection (or delegation) time.
type TraceRecord struct {
	ID       uint64
	Src, Dst int
	Class    noc.Class
	Prio     noc.Priority
	Flits    int
	Payload  string // human-readable payload tag (via Observer.Describe)

	Enqueued int64
	ReadyAt  int64
	Injected int64
	Ejected  int64

	Origin  uint64 // packet this one was derived from (delegation), 0 if none
	Aborted string // why the packet left the network without ejecting
	Hops    []noc.HopTrace
}

// Observer owns the metric registry, trace buffer, and clog detector
// for one simulated system.
type Observer struct {
	opts Options

	// Reg holds the windowed metric probes.
	Reg *Registry
	// Clog is the clog detector over Reg's windows (always present; it
	// only fires if sources are registered).
	Clog *Detector

	// Describe renders a packet payload for trace records. Set by the
	// wiring layer (core) which knows the payload type; must be pure.
	Describe func(payload any) string

	traces        []TraceRecord
	tracesDropped int64
	nextSample    int64
}

// New builds an Observer from options (zero fields take defaults).
func New(o Options) *Observer {
	o = o.withDefaults()
	reg := NewRegistry(o.Window, ringDepth)
	return &Observer{
		opts:       o,
		Reg:        reg,
		Clog:       &Detector{reg: reg, threshold: o.ClogUtil},
		traces:     make([]TraceRecord, 0, o.MaxTraces),
		nextSample: o.Window,
	}
}

// Tick advances the observer clock; at window boundaries it samples
// every probe. Pure: no I/O, no maps.
func (o *Observer) Tick(cycle int64) {
	if cycle < o.nextSample {
		return
	}
	o.Reg.sample(cycle)
	o.nextSample += o.opts.Window
}

// TraceFor returns a fresh trace for packet id if tracing is enabled
// and the deterministic 1-in-N sampler selects it, else nil. The
// caller attaches the result to the packet.
func (o *Observer) TraceFor(id uint64) *noc.PacketTrace {
	if o.opts.TraceSample == 0 || id%o.opts.TraceSample != 0 {
		return nil
	}
	if len(o.traces) >= o.opts.MaxTraces {
		o.tracesDropped++
		return nil
	}
	return &noc.PacketTrace{}
}

// PacketCompleted flattens an ejected traced packet into the trace
// buffer. Installed as each network's TraceSink; runs in the tick
// path, so it only copies into preallocated memory.
func (o *Observer) PacketCompleted(p *noc.Packet) {
	if p.Trace == nil {
		return
	}
	if len(o.traces) >= cap(o.traces) {
		// Successor traces created outside TraceFor (delegation) can
		// overshoot MaxTraces; drop rather than grow the buffer.
		o.tracesDropped++
		return
	}
	rec := TraceRecord{
		ID: p.ID, Src: p.Src, Dst: p.Dst,
		Class: p.Class, Prio: p.Prio, Flits: p.SizeFlits,
		Enqueued: p.Enqueued, ReadyAt: p.ReadyAt,
		Injected: p.Injected, Ejected: p.Ejected,
		Origin: p.Trace.Origin, Aborted: p.Trace.Aborted,
	}
	rec.Hops = append(rec.Hops, p.Trace.Hops...)
	if o.Describe != nil {
		rec.Payload = o.Describe(p.Payload)
	}
	o.traces = append(o.traces, rec)
}

// PacketDropped records a traced packet that left the simulation
// without ejecting (a reply converted into a delegated request). The
// record's Ejected field carries the drop cycle.
func (o *Observer) PacketDropped(p *noc.Packet, reason string, cycle int64) {
	if p.Trace == nil {
		return
	}
	p.Trace.Aborted = reason
	p.Ejected = cycle
	o.PacketCompleted(p)
}

// TraceCount returns the number of retained trace records.
func (o *Observer) TraceCount() int { return len(o.traces) }

// TracesDropped returns how many sampled packets exceeded MaxTraces.
func (o *Observer) TracesDropped() int64 { return o.tracesDropped }

// Traces returns the retained trace records in completion order.
func (o *Observer) Traces() []TraceRecord { return o.traces }

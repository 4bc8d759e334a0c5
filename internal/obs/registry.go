package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// probeKind selects how a probe's closure is turned into a windowed
// sample.
type probeKind uint8

const (
	// kindGauge samples the closure's instantaneous value.
	kindGauge probeKind = iota
	// kindRate differences a cumulative counter across the window and
	// divides by the window length (events per cycle).
	kindRate
	// kindRatio differences two cumulative counters and reports
	// num-delta / den-delta (e.g. latency sum over sample count).
	kindRatio
)

func (k probeKind) String() string {
	switch k {
	case kindGauge:
		return "gauge"
	case kindRate:
		return "rate"
	case kindRatio:
		return "ratio"
	}
	return "???"
}

// Probe is one named time series. Closures read simulated state; they
// must be pure observers (no mutation, no I/O) because they run inside
// the tick path at every window boundary.
type Probe struct {
	Name string
	kind probeKind
	num  func() float64 // gauge/rate value, or ratio numerator
	den  func() float64 // ratio denominator (nil otherwise)

	lastNum float64
	lastDen float64

	reg     *Registry
	samples []float64 // one slot per retained window, indexed as Registry.ends
}

// Values returns the retained samples in chronological order.
func (p *Probe) Values() []float64 { return retained(p.reg, p.samples) }

// Registry samples named probes every window cycles into one
// preallocated ring of windows: the registry holds the ring's only
// head and length, and each probe's samples occupy the slots of the
// window ends, so every series covers exactly the same windows.
type Registry struct {
	window int64
	depth  int

	probes []*Probe

	ends    []int64 // window end cycles, one slot per retained window
	head, n int     // oldest slot and slots in use, shared by every probe
	sampled int64   // windows sampled since construction
}

// NewRegistry builds a registry sampling every window cycles and
// retaining the most recent depth windows; both must be positive
// (Options.withDefaults supplies the observer's).
func NewRegistry(window int64, depth int) *Registry {
	return &Registry{window: window, depth: depth, ends: make([]int64, depth)}
}

// Samples returns how many windows have been sampled so far.
func (r *Registry) Samples() int64 { return r.sampled }

// Dropped returns how many of the oldest windows the ring overwrote.
func (r *Registry) Dropped() int64 { return r.sampled - int64(r.n) }

// Probes returns the registered probes in registration order.
func (r *Registry) Probes() []*Probe { return r.probes }

// register adds p. Every probe must exist before the first window is
// sampled, so that all series cover the same windows.
func (r *Registry) register(p *Probe) *Probe {
	if r.sampled > 0 {
		panic("obs: probe " + p.Name + " registered after sampling began")
	}
	p.reg, p.samples = r, make([]float64, r.depth)
	r.probes = append(r.probes, p)
	return p
}

// Gauge registers a probe sampling fn's instantaneous value (queue
// occupancy, MSHR occupancy, ...).
func (r *Registry) Gauge(name string, fn func() float64) *Probe {
	return r.register(&Probe{Name: name, kind: kindGauge, num: fn})
}

// Rate registers a probe over a cumulative counter; each sample is the
// counter's per-cycle rate within the window (flit rates, blocked-cycle
// fractions, ...). A counter that shrinks between windows (the warm-up
// ResetStats boundary) re-baselines at its new value.
func (r *Registry) Rate(name string, fn func() float64) *Probe {
	return r.register(&Probe{Name: name, kind: kindRate, num: fn})
}

// RatioDelta registers a probe over two cumulative counters; each
// sample is the window's numerator delta divided by its denominator
// delta, or 0 for an empty window (windowed mean latency from a
// latency sum and a sample count, per-link utilization from busy
// cycles over elapsed port-cycles, ...).
func (r *Registry) RatioDelta(name string, num, den func() float64) {
	r.register(&Probe{Name: name, kind: kindRatio, num: num, den: den})
}

// sample records one window ending at the given cycle. Called from the
// per-cycle path: it must stay free of I/O and allocation beyond the
// preallocated rings (probe closures are invoked, nothing else).
func (r *Registry) sample(cycle int64) {
	slot := r.slot(r.n)
	if r.n < r.depth {
		r.n++
	} else {
		r.head = (r.head + 1) % r.depth // the oldest window is overwritten
	}
	r.ends[slot] = cycle
	r.sampled++
	for _, p := range r.probes {
		var v float64
		switch p.kind {
		case kindGauge:
			v = p.num()
		case kindRate:
			cur := p.num()
			d := cur - p.lastNum
			if d < 0 {
				d = cur // counter was reset at the warm-up boundary
			}
			p.lastNum = cur
			v = d / float64(r.window)
		case kindRatio:
			cn, cd := p.num(), p.den()
			dn, dd := cn-p.lastNum, cd-p.lastDen
			if dn < 0 || dd < 0 {
				dn, dd = cn, cd // counters reset at the warm-up boundary
			}
			p.lastNum, p.lastDen = cn, cd
			if dd > 0 {
				v = dn / dd
			}
		}
		p.samples[slot] = v
	}
}

// slot returns the ring index of the i-th retained window, oldest
// first.
func (r *Registry) slot(i int) int { return (r.head + i) % r.depth }

// retained returns ring's retained slots, oldest window first.
func retained[T any](r *Registry, ring []T) []T {
	out := make([]T, r.n)
	for i := range out {
		out[i] = ring[r.slot(i)]
	}
	return out
}

// WindowEnds returns the end cycles of the retained windows in
// chronological order.
func (r *Registry) WindowEnds() []int64 { return retained(r, r.ends) }

// metricsJSON is the exported JSON shape of a registry.
type metricsJSON struct {
	WindowCycles int64        `json:"window_cycles"`
	Windows      int64        `json:"windows_sampled"`
	WindowEnds   []int64      `json:"window_ends"`
	Series       []seriesJSON `json:"series"`
}

type seriesJSON struct {
	Name    string    `json:"name"`
	Kind    string    `json:"kind"`
	Dropped int64     `json:"dropped_windows,omitempty"`
	Values  []float64 `json:"values"`
}

// WriteJSON exports every series as one JSON document. Run-end only —
// never call from the tick path.
func (r *Registry) WriteJSON(w io.Writer) error {
	doc := metricsJSON{
		WindowCycles: r.window,
		Windows:      r.sampled,
		WindowEnds:   r.WindowEnds(),
	}
	for _, p := range r.probes {
		doc.Series = append(doc.Series, seriesJSON{
			Name: p.Name, Kind: p.kind.String(), Dropped: r.Dropped(), Values: p.Values(),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// WriteCSV exports the series as a window-per-row table with one
// column per probe. Run-end only.
func (r *Registry) WriteCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString("window_end")
	for _, p := range r.probes {
		b.WriteByte(',')
		b.WriteString(csvEscape(p.Name))
	}
	b.WriteByte('\n')
	for row, end := range r.WindowEnds() {
		b.WriteString(strconv.FormatInt(end, 10))
		for _, p := range r.probes {
			b.WriteByte(',')
			b.WriteString(strconv.FormatFloat(p.samples[r.slot(row)], 'g', -1, 64))
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// csvEscape quotes a field when it contains a separator or quote.
func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return fmt.Sprintf("%q", s)
}

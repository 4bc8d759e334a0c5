package obs

import (
	"fmt"
	"io"
)

// ClogSource describes one observation point for the clog detector —
// in practice a memory node's reply port: the links its replies leave
// on, the bounded injection queue behind them, and the node's blocked
// counter. All closures read cumulative or instantaneous simulator
// state and must be pure.
type ClogSource struct {
	Name string
	// Ports returns cumulative flits sent per outgoing link; the
	// detector differences them per window and takes the busiest link
	// as the port utilization.
	Ports []func() float64
	// QLen / QCap observe the bounded injection queue (packets).
	QLen func() int
	QCap int
	// Blocked returns the cumulative cycles the source could not push
	// a flit (optional; nil means unknown).
	Blocked func() float64
}

// ClogEvent is one flagged window: the source's busiest reply link ran
// above the utilization threshold while its injection queue grew (or
// sat full) — the paper's Figure-1 clogging signature.
type ClogEvent struct {
	Source      string
	Start, End  int64 // window bounds in cycles
	Util        float64
	QStart      int
	QEnd        int
	QCap        int
	BlockedFrac float64 // fraction of the window spent blocked (-1 unknown)
}

// clogState is the per-source differencing state.
type clogState struct {
	src       ClogSource
	lastSent  []float64
	lastQ     int
	lastBlock float64
}

// Detector watches registered sources at every window boundary and
// records clog events. Detection runs in the tick path (pure); the
// narrative rendering is run-end only.
type Detector struct {
	window    int64
	threshold float64
	maxEvents int

	sources []*clogState
	events  []ClogEvent
	dropped int64
	total   int64 // events observed including dropped
	lastEnd int64
}

func newDetector(window int64, threshold float64, maxEvents int) *Detector {
	return &Detector{
		window:    window,
		threshold: threshold,
		maxEvents: maxEvents,
		events:    make([]ClogEvent, 0, maxEvents),
	}
}

// AddSource registers an observation point. Call during wiring, before
// the run starts.
func (d *Detector) AddSource(s ClogSource) {
	d.sources = append(d.sources, &clogState{
		src:      s,
		lastSent: make([]float64, len(s.Ports)),
	})
}

// sample evaluates every source for the window ending at cycle.
func (d *Detector) sample(cycle int64) {
	start := d.lastEnd
	d.lastEnd = cycle
	for _, st := range d.sources {
		var maxUtil float64
		for i, port := range st.src.Ports {
			cur := port()
			delta := cur - st.lastSent[i]
			if delta < 0 {
				delta = cur // counter reset at the warm-up boundary
			}
			st.lastSent[i] = cur
			if u := delta / float64(d.window); u > maxUtil {
				maxUtil = u
			}
		}
		q := 0
		if st.src.QLen != nil {
			q = st.src.QLen()
		}
		blockedFrac := -1.0
		if st.src.Blocked != nil {
			cur := st.src.Blocked()
			delta := cur - st.lastBlock
			if delta < 0 {
				delta = cur
			}
			st.lastBlock = cur
			blockedFrac = delta / float64(d.window)
		}
		qStart := st.lastQ
		st.lastQ = q
		// Clog signature: the busiest reply link is saturated while the
		// bounded queue behind it grows or pins at capacity.
		if maxUtil >= d.threshold && (q > qStart || (st.src.QCap > 0 && q >= st.src.QCap)) {
			d.total++
			if len(d.events) >= d.maxEvents {
				d.dropped++
				continue
			}
			d.events = append(d.events, ClogEvent{
				Source: st.src.Name, Start: start, End: cycle,
				Util: maxUtil, QStart: qStart, QEnd: q, QCap: st.src.QCap,
				BlockedFrac: blockedFrac,
			})
		}
	}
}

// Events returns the retained clog events in detection order.
func (d *Detector) Events() []ClogEvent { return d.events }

// EventCount returns the total flagged windows, including any dropped
// beyond the retention bound.
func (d *Detector) EventCount() int64 { return d.total }

// Narrative writes a human-readable account of the detected clogging,
// grouping consecutive flagged windows of one source into episodes —
// a Figure-1-style story of when and where the reply path clogged.
// Run-end only.
func (d *Detector) Narrative(w io.Writer) error {
	if len(d.events) == 0 {
		_, err := fmt.Fprintf(w, "no clog episodes detected (threshold %.0f%% port utilization)\n", d.threshold*100)
		return err
	}
	type episode struct {
		source     string
		start, end int64
		windows    int
		peakUtil   float64
		peakQ      int
		qCap       int
		blocked    float64 // mean blocked fraction over windows with data
		blockedN   int
	}
	var eps []*episode
	open := map[string]*episode{}
	for _, ev := range d.events {
		e := open[ev.Source]
		if e == nil || ev.Start > e.end {
			e = &episode{source: ev.Source, start: ev.Start, end: ev.End, qCap: ev.QCap}
			open[ev.Source] = e
			eps = append(eps, e)
		}
		e.end = ev.End
		e.windows++
		if ev.Util > e.peakUtil {
			e.peakUtil = ev.Util
		}
		if ev.QEnd > e.peakQ {
			e.peakQ = ev.QEnd
		}
		if ev.BlockedFrac >= 0 {
			e.blocked += ev.BlockedFrac
			e.blockedN++
		}
	}
	if _, err := fmt.Fprintf(w, "%d clog episode(s) across %d flagged window(s) (threshold %.0f%%):\n",
		len(eps), d.total, d.threshold*100); err != nil {
		return err
	}
	for _, e := range eps {
		line := fmt.Sprintf("  %-10s cycles %7d..%-7d  %2d window(s)  peak util %5.1f%%  queue peak %d/%d",
			e.source, e.start, e.end, e.windows, e.peakUtil*100, e.peakQ, e.qCap)
		if e.blockedN > 0 {
			line += fmt.Sprintf("  blocked %4.1f%% of cycles", e.blocked/float64(e.blockedN)*100)
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	if d.dropped > 0 {
		if _, err := fmt.Fprintf(w, "  (%d flagged window(s) beyond the retention bound were dropped)\n", d.dropped); err != nil {
			return err
		}
	}
	return nil
}

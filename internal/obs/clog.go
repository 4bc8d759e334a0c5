package obs

import (
	"fmt"
	"io"
)

// ClogSource is one observation point for the clog detector — in
// practice a memory node's reply port — given as registry probes, so
// the detector reads the window the registry has just sampled: a Rate
// per outgoing link (flits per cycle; the busiest is the port
// utilization), a Gauge of the bounded injection queue (packets) with
// its capacity, and a Rate of the cycles the source was blocked.
type ClogSource struct {
	Name    string
	Links   []*Probe
	Queue   *Probe
	QCap    int
	Blocked *Probe
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
	BlockedFrac float64 // fraction of the window spent blocked
}

// Detector watches registered sources at every window boundary and
// records clog events. Detection runs in the tick path (pure); the
// narrative rendering is run-end only.
type Detector struct {
	threshold float64
	maxEvents int

	sources []ClogSource
	events  []ClogEvent
	dropped int64
	total   int64 // events observed including dropped
	lastEnd int64
}

func newDetector(threshold float64, maxEvents int) *Detector {
	return &Detector{
		threshold: threshold,
		maxEvents: maxEvents,
		events:    make([]ClogEvent, 0, maxEvents),
	}
}

// AddSource registers an observation point. Call during wiring, before
// the run starts.
func (d *Detector) AddSource(s ClogSource) { d.sources = append(d.sources, s) }

// sample evaluates every source for the window ending at cycle. It runs
// right after Registry.sample, so a probe's newest sample is this
// window and the one before it the previous window.
func (d *Detector) sample(cycle int64) {
	start := d.lastEnd
	d.lastEnd = cycle
	for _, src := range d.sources {
		var maxUtil float64
		for _, link := range src.Links {
			if u := link.last(0); u > maxUtil {
				maxUtil = u
			}
		}
		q, qStart := int(src.Queue.last(0)), int(src.Queue.last(1))
		// Clog signature: the busiest reply link is saturated while the
		// bounded queue behind it grows or pins at capacity.
		if maxUtil >= d.threshold && (q > qStart || (src.QCap > 0 && q >= src.QCap)) {
			d.total++
			if len(d.events) >= d.maxEvents {
				d.dropped++
				continue
			}
			d.events = append(d.events, ClogEvent{
				Source: src.Name, Start: start, End: cycle,
				Util: maxUtil, QStart: qStart, QEnd: q, QCap: src.QCap,
				BlockedFrac: src.Blocked.last(0),
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
		blocked    float64 // blocked fraction summed over windows
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
		e.blocked += ev.BlockedFrac
	}
	if _, err := fmt.Fprintf(w, "%d clog episode(s) across %d flagged window(s) (threshold %.0f%%):\n",
		len(eps), d.total, d.threshold*100); err != nil {
		return err
	}
	for _, e := range eps {
		if _, err := fmt.Fprintf(w,
			"  %-10s cycles %7d..%-7d  %2d window(s)  peak util %5.1f%%  queue peak %d/%d  blocked %4.1f%% of cycles\n",
			e.source, e.start, e.end, e.windows, e.peakUtil*100, e.peakQ, e.qCap, e.blocked/float64(e.windows)*100); err != nil {
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

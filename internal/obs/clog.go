package obs

import (
	"fmt"
	"io"
	"strings"
)

// ClogSource is one observation point for the clog detector — in
// practice a memory node's reply port — given as registry probes, so
// the detector reads the windows the registry retained: a Rate
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

// Detector finds clog events in the registry's retained windows after
// the run; nothing of it runs in the tick path.
type Detector struct {
	reg       *Registry
	threshold float64
	sources   []ClogSource
}

// AddSource registers an observation point. Call during wiring, before
// the run starts.
func (d *Detector) AddSource(s ClogSource) { d.sources = append(d.sources, s) }

// Events returns the flagged windows in detection order: window by
// window and, within a window, source by source. A window starts where
// the previous retained window ended (the oldest at end - window) and
// its queue growth is measured from that window's queue sample (from
// empty for the run's first window). Once the ring has wrapped, the
// oldest retained window only supplies that baseline and is not
// itself examined. Run-end only.
func (d *Detector) Events() []ClogEvent {
	r := d.reg
	ends := r.WindowEnds()
	var evs []ClogEvent
	for w, end := range ends {
		if w == 0 && r.Dropped() > 0 {
			continue
		}
		slot, start := r.slot(w), end-r.window
		if w > 0 {
			start = ends[w-1]
		}
		for _, src := range d.sources {
			var maxUtil float64
			for _, l := range src.Links {
				maxUtil = max(maxUtil, l.samples[slot])
			}
			q, qStart := int(src.Queue.samples[slot]), 0
			if w > 0 {
				qStart = int(src.Queue.samples[r.slot(w-1)])
			}
			// Clog signature: the busiest reply link is saturated while
			// the bounded queue behind it grows or pins at capacity.
			if maxUtil >= d.threshold && (q > qStart || (src.QCap > 0 && q >= src.QCap)) {
				evs = append(evs, ClogEvent{
					Source: src.Name, Start: start, End: end,
					Util: maxUtil, QStart: qStart, QEnd: q, QCap: src.QCap,
					BlockedFrac: src.Blocked.samples[slot],
				})
			}
		}
	}
	return evs
}

// Narrative writes a human-readable account of the detected clogging,
// grouping consecutive flagged windows of one source into episodes —
// a Figure-1-style story of when and where the reply path clogged.
// Run-end only.
func (d *Detector) Narrative(w io.Writer) error {
	type episode struct {
		source     string
		start, end int64
		windows    int
		peakUtil   float64
		peakQ      int
		qCap       int
		blocked    float64 // blocked fraction summed over windows
	}
	evs := d.Events()
	var eps []*episode
	open := map[string]*episode{}
	for _, ev := range evs {
		e := open[ev.Source]
		if e == nil || ev.Start > e.end {
			e = &episode{source: ev.Source, start: ev.Start, end: ev.End, qCap: ev.QCap}
			open[ev.Source] = e
			eps = append(eps, e)
		}
		e.end = ev.End
		e.windows++
		e.peakUtil = max(e.peakUtil, ev.Util)
		e.peakQ = max(e.peakQ, ev.QEnd)
		e.blocked += ev.BlockedFrac
	}
	var b strings.Builder
	if len(eps) == 0 {
		fmt.Fprintf(&b, "no clog episodes detected (threshold %.0f%% port utilization)\n", d.threshold*100)
	} else {
		fmt.Fprintf(&b, "%d clog episode(s) across %d flagged window(s) (threshold %.0f%%):\n",
			len(eps), len(evs), d.threshold*100)
	}
	for _, e := range eps {
		fmt.Fprintf(&b,
			"  %-10s cycles %7d..%-7d  %2d window(s)  peak util %5.1f%%  queue peak %d/%d  blocked %4.1f%% of cycles\n",
			e.source, e.start, e.end, e.windows, e.peakUtil*100, e.peakQ, e.qCap, e.blocked/float64(e.windows)*100)
	}
	if dropped := d.reg.Dropped(); dropped > 0 {
		fmt.Fprintf(&b, "  (the first %d window(s), through cycle %d, were not examined: the ring retains the last %d)\n",
			dropped+1, d.reg.WindowEnds()[0], d.reg.depth)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

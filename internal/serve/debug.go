package serve

import (
	"fmt"
	"html/template"
	"net/http"
	"sort"
	"time"

	"delrep/internal/telemetry"
)

// debugJobs is how many terminal jobs /debug/jobs lists.
const debugJobs = 128

// JobRecord is one terminal job as /debug/jobs lists it: identity,
// outcome, cache provenance, the coarse latency split and the span
// tree.
type JobRecord struct {
	ID       string             `json:"id"`
	Client   string             `json:"client,omitempty"`
	Priority string             `json:"priority"`
	Spec     string             `json:"spec"`               // human label, e.g. "HS+vips delegated"
	SpecKey  string             `json:"spec_key,omitempty"` // short content hash, correlates with cache entries
	Outcome  string             `json:"outcome"`            // done | failed | cancelled
	Source   string             `json:"source,omitempty"`   // executed | memo | disk
	Error    string             `json:"error,omitempty"`
	Created  time.Time          `json:"created"`
	QueueUS  int64              `json:"queue_us"` // admission → dispatch
	ExecUS   int64              `json:"exec_us"`  // dispatch → terminal
	TotalUS  int64              `json:"total_us"` // submit → terminal
	Trace    telemetry.SpanView `json:"trace"`
}

// recent renders up to n terminal jobs of the job table, the most
// recently finished first, and counts the terminal jobs in all.
func (s *Server) recent(n int) (recs []JobRecord, total int) {
	var seqs []int
	s.mu.Lock()
	rows := s.order
	for i, row := range rows {
		if row.status.Terminal() {
			seqs = append(seqs, i+1)
		}
	}
	s.mu.Unlock()
	// A terminal job's row never changes again: read it unlocked.
	sort.SliceStable(seqs, func(a, b int) bool { return rows[seqs[a]-1].finished.After(rows[seqs[b]-1].finished) })
	recs = make([]JobRecord, min(n, len(seqs)))
	for i := range recs {
		id, row, r := s.jobID(seqs[i]), rows[seqs[i]-1], &recs[i]
		*r = JobRecord{
			ID:       id,
			Client:   row.client,
			Priority: row.prio.String(),
			Spec:     fmt.Sprintf("%s+%s %s", row.spec.GPU, row.spec.CPU, row.spec.Scheme),
			SpecKey:  row.specKey,
			Outcome:  string(row.status),
			Source:   row.source,
			Error:    row.err,
			Created:  row.created,
			TotalUS:  row.finished.Sub(row.created).Microseconds(),
			Trace:    row.traceViewLocked(id),
		}
		r.QueueUS = r.TotalUS // never ran
		if !row.started.IsZero() {
			r.QueueUS = row.started.Sub(row.created).Microseconds()
			r.ExecUS = row.finished.Sub(row.started).Microseconds()
		}
	}
	return recs, len(seqs)
}

// handleDebugJobs lists the newest terminal jobs with their span trees.
// 404 when telemetry is off.
func (s *Server) handleDebugJobs(w http.ResponseWriter, r *http.Request) {
	if !s.telemetry {
		writeError(w, http.StatusNotFound, "telemetry is disabled; restart with -telemetry")
		return
	}
	recs, total := s.recent(debugJobs)
	writeJSON(w, http.StatusOK, struct {
		Total    int         `json:"total"`
		Capacity int         `json:"capacity"`
		Jobs     []JobRecord `json:"jobs"`
	}{total, debugJobs, recs})
}

// statusPage is the data fed to the /debug/status template.
type statusPage struct {
	Uptime       string
	Workers      int
	Queued       int
	Running      int
	Draining     bool
	SSESubs      int
	Done         int64
	Failed       int64
	Cancelled    int64
	CacheHits    int64
	CacheMisses  int64
	CacheCorrupt int64
	Recent       []JobRecord
}

var statusTmpl = template.Must(template.New("status").Funcs(template.FuncMap{
	"seconds": func(us int64) float64 { return float64(us) / 1e6 },
}).Parse(`<!DOCTYPE html>
<html><head><title>delrepd status</title>
<style>
body { font-family: sans-serif; margin: 2em; }
table { border-collapse: collapse; margin-top: 0.5em; }
th, td { border: 1px solid #ccc; padding: 0.3em 0.7em; text-align: left; }
th { background: #f0f0f0; }
.gauges span { margin-right: 2em; }
</style></head>
<body>
<h1>delrepd</h1>
<p class="gauges">
<span>uptime <b>{{.Uptime}}</b></span>
<span>workers <b>{{.Workers}}</b></span>
<span>queued <b>{{.Queued}}</b></span>
<span>running <b>{{.Running}}</b></span>
<span>sse subscribers <b>{{.SSESubs}}</b></span>
{{if .Draining}}<span><b>DRAINING</b></span>{{end}}
</p>
<p class="gauges">
<span>done <b>{{.Done}}</b></span>
<span>failed <b>{{.Failed}}</b></span>
<span>cancelled <b>{{.Cancelled}}</b></span>
<span>disk cache hit/miss/corrupt <b>{{.CacheHits}}/{{.CacheMisses}}/{{.CacheCorrupt}}</b></span>
</p>
{{if .Recent}}
<h2>recent jobs</h2>
<table>
<tr><th>id</th><th>client</th><th>prio</th><th>spec</th><th>outcome</th><th>source</th><th>queue</th><th>exec</th><th>total</th><th>trace</th></tr>
{{range .Recent}}
<tr>
<td>{{.ID}}</td><td>{{.Client}}</td><td>{{.Priority}}</td><td>{{.Spec}}</td>
<td>{{.Outcome}}</td><td>{{.Source}}</td>
<td>{{printf "%.3fs" (seconds .QueueUS)}}</td>
<td>{{printf "%.3fs" (seconds .ExecUS)}}</td>
<td>{{printf "%.3fs" (seconds .TotalUS)}}</td>
<td><a href="/v1/jobs/{{.ID}}/trace">chrome</a> <a href="/v1/jobs/{{.ID}}/trace?format=tree">tree</a></td>
</tr>
{{end}}
</table>
{{else}}
<p>no finished jobs yet</p>
{{end}}
</body></html>
`))

// handleDebugStatus renders a human-oriented HTML snapshot of the
// daemon: gauges, terminal counters, cache accounting, and the 20
// newest terminal jobs with links to their traces.
func (x *local) handleDebugStatus(w http.ResponseWriter, r *http.Request) {
	s := x.srv
	cacheStats := x.opts.Engine.DiskCache().Stats()
	s.mu.Lock()
	page := statusPage{
		Uptime:       time.Since(x.started).Round(time.Second).String(),
		Workers:      x.opts.Engine.Workers(),
		Queued:       x.queuedCount,
		Running:      s.running,
		Draining:     s.draining,
		SSESubs:      s.sseSubs,
		Done:         s.statusCounts[StatusDone],
		Failed:       s.statusCounts[StatusFailed],
		Cancelled:    s.statusCounts[StatusCancelled],
		CacheHits:    cacheStats.Hits,
		CacheMisses:  cacheStats.Misses,
		CacheCorrupt: cacheStats.Corrupt,
	}
	s.mu.Unlock()
	page.Recent, _ = s.recent(20)
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := statusTmpl.Execute(w, page); err != nil {
		s.logger.WarnContext(r.Context(), "status page render failed", "error", err)
	}
}

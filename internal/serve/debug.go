package serve

import (
	"html/template"
	"net/http"
	"time"

	"delrep/internal/telemetry"
)

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
	Recent       []telemetry.JobRecord
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
<p>no recent jobs (the flight recorder fills once telemetry-enabled jobs complete)</p>
{{end}}
</body></html>
`))

// handleDebugStatus renders a human-oriented HTML snapshot of the
// daemon: gauges, terminal counters, cache accounting, and the flight
// recorder's recent jobs with links to their traces.
func (x *local) handleDebugStatus(w http.ResponseWriter, r *http.Request) {
	s := x.srv
	cacheStats := x.opts.Engine.DiskCache().Stats()
	s.mu.Lock()
	page := statusPage{
		Uptime:       time.Since(x.started).Round(time.Second).String(),
		Workers:      x.opts.Workers,
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
	page.Recent = s.flight.Snapshot()
	if len(page.Recent) > 20 {
		page.Recent = page.Recent[:20]
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := statusTmpl.Execute(w, page); err != nil {
		s.logger.WarnContext(r.Context(), "status page render failed", "error", err)
	}
}

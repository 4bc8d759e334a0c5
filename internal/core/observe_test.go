package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"delrep/internal/config"
	"delrep/internal/obs"
)

// observedRun runs a workload with a fully enabled observer attached.
func observedRun(cfg config.Config, opts obs.Options) (*System, *obs.Observer) {
	sys := NewSystem(cfg, "2DCON", "dedup")
	o := obs.New(opts)
	sys.AttachObserver(o)
	sys.RunWorkload()
	return sys, o
}

// TestObserverInert is the acceptance check for the observability
// layer: attaching an observer with metrics, tracing, and clog
// detection all enabled must not change a single bit of simulated
// state — cycle counts and the stats digest are identical to a bare
// run of the same configuration.
func TestObserverInert(t *testing.T) {
	cfg := auditConfig(config.SchemeDelegatedReplies, config.TopoMesh)
	bare := RunAudit(cfg, "2DCON", "dedup")

	sys, o := observedRun(cfg, obs.Options{
		Window:      100,
		TraceSample: 4,
		ClogUtil:    0.5,
	})
	if got := sys.Cycle(); got != bare.Cycles {
		t.Fatalf("observer changed cycle count: %d vs %d", got, bare.Cycles)
	}
	if got := sys.StatsDigest(); got != bare.Digest {
		t.Fatalf("observer changed stats digest: %#x vs %#x", got, bare.Digest)
	}
	// The observer must actually have observed something.
	if o.Reg.Samples() == 0 {
		t.Fatal("no metric windows sampled")
	}
	if o.TraceCount() == 0 {
		t.Fatal("no packet traces collected")
	}
}

// TestObserverDeterministic re-runs an observed configuration and
// requires identical observability output, not just identical
// simulated state.
func TestObserverDeterministic(t *testing.T) {
	cfg := auditConfig(config.SchemeDelegatedReplies, config.TopoMesh)
	opts := obs.Options{Window: 100, TraceSample: 4, ClogUtil: 0.5}

	var out [2]string
	for i := range out {
		_, o := observedRun(cfg, opts)
		var b strings.Builder
		if err := o.Reg.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		if err := o.WriteTrace(&b); err != nil {
			t.Fatal(err)
		}
		if err := o.Clog.Narrative(&b); err != nil {
			t.Fatal(err)
		}
		out[i] = b.String()
	}
	if out[0] != out[1] {
		t.Fatal("observability output differs between identical runs")
	}
}

// TestClogNarrativeCoversRun runs a clogged baseline with 3-cycle
// windows at a 30% threshold, which flags more windows (over 15 000)
// than the registry's ring holds (4096), in fewer windows (2666) than
// it holds: the narrative reads every window, so it reaches the run's
// last one and reports nothing dropped.
func TestClogNarrativeCoversRun(t *testing.T) {
	cfg := shortCfg(config.SchemeBaseline)
	cfg.MeasureCycles = 6000
	sys := NewSystem(cfg, "BP", "vips")
	o := obs.New(obs.Options{Window: 3, ClogUtil: 0.3})
	sys.AttachObserver(o)
	sys.RunWorkload()

	if n := len(o.Clog.Events()); n <= 4096 {
		t.Errorf("%d flagged windows; the run must flag more than the ring's 4096", n)
	}
	ends := o.Reg.WindowEnds()
	var b strings.Builder
	if err := o.Clog.Narrative(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if last := fmt.Sprintf("..%-7d ", ends[len(ends)-1]); !strings.Contains(out, last) {
		t.Errorf("no episode ends at the run's last window (%q); narrative tail:\n%s", last, out[max(0, len(out)-400):])
	}
	if strings.Contains(out, "dropped") || strings.Contains(out, "not examined") {
		t.Errorf("narrative reports lost windows:\n%s", out[max(0, len(out)-400):])
	}
}

// TestLinkSeriesMatchReplyUtil checks the per-link reply series the
// clog detector reads against the aggregate series registered beside
// them: in every window that does not span the warm-up reset, the mean
// of a memory node's mem<i>/link<p> rates is its mem<i>/reply_link_util
// sample (flits sent over the node's link-cycles).
func TestLinkSeriesMatchReplyUtil(t *testing.T) {
	cfg := shortCfg(config.SchemeBaseline)
	const window = 500
	_, o := observedRun(cfg, obs.Options{Window: window})
	ends := o.Reg.WindowEnds()
	probes := o.Reg.Probes()
	checked, busy := 0, 0
	for _, util := range probes {
		mem, ok := strings.CutSuffix(util.Name, "/reply_link_util")
		if !ok {
			continue
		}
		var links [][]float64
		for _, p := range probes {
			if strings.HasPrefix(p.Name, mem+"/link") {
				links = append(links, p.Values())
			}
		}
		if len(links) == 0 {
			t.Fatalf("%s has no per-link series", mem)
		}
		for w, u := range util.Values() {
			if end := ends[w]; end-window <= cfg.WarmupCycles && cfg.WarmupCycles < end {
				continue
			}
			var sum float64
			for _, l := range links {
				sum += l[w]
			}
			if mean := sum / float64(len(links)); math.Abs(mean-u) > 1e-9*math.Abs(u) {
				t.Errorf("%s window ending %d: mean link rate %v, reply_link_util %v", mem, ends[w], mean, u)
			}
			checked++
			if u > 0 {
				busy++
			}
		}
	}
	if checked == 0 || busy == 0 {
		t.Fatalf("checked %d windows, %d with reply traffic; want some of both", checked, busy)
	}
}

// TestObserverTracesDelegations checks that delegation shows up in the
// trace stream: an aborted (delegated) reply and successor records
// that point back at an origin packet.
func TestObserverTracesDelegations(t *testing.T) {
	cfg := auditConfig(config.SchemeDelegatedReplies, config.TopoMesh)
	cfg.WarmupCycles = 0
	cfg.MeasureCycles = 3000
	_, o := observedRun(cfg, obs.Options{TraceSample: 1, MaxTraces: 1 << 16})

	var aborted, derived int
	for _, tr := range o.Traces() {
		if tr.Aborted == "delegated" {
			aborted++
		}
		if tr.Origin != 0 {
			derived++
		}
	}
	if aborted == 0 {
		t.Fatal("no delegated-reply aborts traced (delegation never fired?)")
	}
	if derived == 0 {
		t.Fatal("no successor traces inherited an origin packet")
	}
}

// TestLoadBreakConsistency checks the latency-attribution arithmetic:
// the breakdown components must sum back to the measured end-to-end
// average, and every component must be non-negative.
func TestLoadBreakConsistency(t *testing.T) {
	cfg := shortCfg(config.SchemeDelegatedReplies)
	sys := NewSystem(cfg, "2DCON", "dedup")
	r := sys.RunWorkload()
	lb := r.LoadBreak
	if lb.Count == 0 {
		t.Fatal("no loads attributed")
	}
	sum := lb.QueueAvg + lb.XferAvg + lb.SerAvg + lb.DelegWaitAvg + lb.ServiceAvg
	if diff := sum - lb.TotalAvg; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("breakdown does not sum to total: %v vs %v", sum, lb.TotalAvg)
	}
	for name, v := range map[string]float64{
		"queue": lb.QueueAvg, "xfer": lb.XferAvg, "ser": lb.SerAvg,
		"delegWait": lb.DelegWaitAvg, "service": lb.ServiceAvg,
	} {
		if v < 0 {
			t.Fatalf("negative %s component: %v", name, v)
		}
	}
	if lb.LegsAvg < 2 {
		t.Fatalf("LegsAvg = %v; every load crosses the network at least twice", lb.LegsAvg)
	}
	if lb.HopsAvg <= 0 {
		t.Fatalf("HopsAvg = %v", lb.HopsAvg)
	}
	// Per-kind rows must aggregate to the overall row.
	var n int64
	for _, k := range r.LoadBreakByKind {
		n += k.Count
	}
	if n != lb.Count {
		t.Fatalf("per-kind counts sum to %d, overall %d", n, lb.Count)
	}
	// Delegation overhead only exists under the delegated scheme and
	// must be attributed when delegations happened.
	if r.Delegations > 0 && r.LoadBreakByKind[ReplyRemoteHit].DelegFrac == 0 &&
		r.LoadBreakByKind[ReplyRemoteMiss].DelegFrac == 0 {
		t.Fatal("delegations occurred but none were attributed to loads")
	}
}

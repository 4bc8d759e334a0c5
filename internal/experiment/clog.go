package experiment

import (
	"delrep/internal/config"
	"delrep/internal/stats"
)

// clogExp is the paper's Figure-1 motivation on 2DCON and its primary
// co-runner: under the baseline the memory nodes' reply ports saturate
// and the nodes block; Delegated Replies drains them. The same two runs'
// episode-by-episode clog narrative is `delrepsim -clog` (EXPERIMENTS.md,
// "Figure 1").
func clogExp(p *Plan) func() Report {
	schemes := []config.Scheme{config.SchemeBaseline, config.SchemeDelegatedReplies}
	futs := p.declare([]string{"2DCON"}, false, schemes...)
	return func() Report {
		t := stats.NewTable("Figure 1: memory-node clogging on 2DCON + "+PrimaryCPU("2DCON"),
			"Scheme", "GPU IPC", "Mem blocked %", "Reply-link util %", "Delegations")
		for si, scheme := range schemes {
			r := futs[0][si][0].Results()
			t.AddRow(scheme, r.GPUIPC, 100*r.MemBlockedRate, 100*r.MemReplyLinkUtil, r.Delegations)
		}
		return Report{Tables: []*stats.Table{t}, Claims: []Claim{{ID: "clog",
			Paper: "paper: Figure 1 — memory-node reply ports clog under the baseline; Delegated Replies drains them"}}}
	}
}

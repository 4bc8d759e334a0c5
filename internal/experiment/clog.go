package experiment

import (
	"bytes"
	"fmt"
	"strings"

	"delrep/internal/config"
	"delrep/internal/core"
	"delrep/internal/obs"
	"delrep/internal/runner"
)

// clogExp reruns the paper's Figure-1 motivation with the clog
// detector attached: the baseline memory nodes saturate their reply
// ports while the reply queue keeps growing. Delegated Replies does not
// make the episodes disappear: the committed -quick record flags 53
// episodes over 222 windows for the baseline and 39 over 224 for DR,
// while GPU IPC rises 4.17 -> 5.68 and memory blocking falls 85.3% ->
// 76.4%.
//
// The observer hooks into the cycle loop, so these runs bypass the
// engine's core.Results cache; instead the rendered narrative itself is
// memoized in the cache's blob namespace, keeping warm reruns at zero
// simulations.
func clogExp(p *Plan) func() Report {
	return func() Report {
		var notes []string
		for _, scheme := range []config.Scheme{config.SchemeBaseline, config.SchemeDelegatedReplies} {
			// The stored narrative ends in a blank line; a note is
			// printed with its own newline.
			notes = append(notes, strings.TrimSuffix(string(p.clogNarrative(scheme)), "\n"))
		}
		return Report{Notes: append(notes,
			"paper: Figure 1 — memory-node reply ports clog under the baseline; Delegated Replies drains them")}
	}
}

// clogNarrative returns one scheme's rendered narrative, from the blob
// cache or from an observed run.
func (p *Plan) clogNarrative(scheme config.Scheme) []byte {
	cfg := p.prep(BaseConfig(scheme))
	gpu, cpu := "2DCON", PrimaryCPU("2DCON")
	cache := p.eng.DiskCache()
	blobKey := runner.Key(cfg, gpu, cpu) + "|clog-narrative"

	p.observed++
	if cache != nil {
		if data, ok := cache.GetBlob(blobKey); ok {
			return data
		}
	}

	fmt.Fprintf(p.Log, "  run %-5s + %-12s %s (observed)...\n", gpu, cpu, cfg.Scheme)
	sys := core.NewSystem(cfg, gpu, cpu)
	o := obs.New(obs.Options{Window: 500, ClogUtil: 0.5})
	sys.AttachObserver(o)
	res := sys.RunWorkload()
	p.obsSims++

	var buf bytes.Buffer
	fmt.Fprintf(&buf, "--- %s (%s + %s) ---\n", cfg.Scheme, gpu, cpu)
	fmt.Fprintf(&buf, "GPU IPC %.2f  mem blocked %.1f%%  reply-link util %.1f%%  delegations %d\n",
		res.GPUIPC, 100*res.MemBlockedRate, 100*res.MemReplyLinkUtil, res.Delegations)
	if err := o.Clog.Narrative(&buf); err != nil {
		fmt.Fprintf(p.Log, "clog narrative: %v\n", err)
	}
	fmt.Fprintln(&buf)

	if cache != nil {
		if err := cache.PutBlob(blobKey, buf.Bytes()); err != nil {
			fmt.Fprintf(p.Log, "caching clog narrative: %v\n", err)
		}
	}
	return buf.Bytes()
}

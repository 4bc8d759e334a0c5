package main

import (
	"fmt"
	"os"

	"delrep/internal/experiment"
	"delrep/internal/remote"
	"delrep/internal/runner"
	"delrep/internal/simspec"
)

// runRemote has one spec served by a delrepd or delrepfleet endpoint
// and prints the result. With -json the output is the canonical
// simspec.Result — byte-identical to a local `delrepsim -json` run of
// the same spec, which is the fleet's core invariant and the easiest
// way to audit it:
//
//	delrepsim -gpu HS -cpu vips -json > local.json
//	delrepsim -gpu HS -cpu vips -json -remote http://fleet:9090 > served.json
//	cmp local.json served.json
func runRemote(engine *experiment.EngineFlags, rem *remote.Flag, spec simspec.Spec, jsonOut bool) {
	// Resolve locally first: malformed specs fail fast with the usual
	// message, and the human report needs the resolved configuration.
	cfg, norm, err := spec.Resolve()
	if err != nil {
		fatalf("%v", err)
	}
	// The same resolver path a remote sweep takes, minus the local
	// cache: the point is to be served, not to recall a result.
	res, err := rem.Resolver("delrepsim")
	if err != nil {
		fatalf("%v", err)
	}
	uncached := *engine
	uncached.Cache = "off"
	eng, err := uncached.Engine("delrepsim", res)
	if err != nil {
		fatalf("%v", err)
	}
	run := eng.Run(runner.Spec{Cfg: cfg, GPU: norm.GPU, CPU: norm.CPU})
	if run.Err != nil {
		fatalf("%v", run.Err)
	}
	// Stderr, so stdout stays exactly the result (or the canonical
	// Result bytes under -json).
	served := "remote"
	if run.Worker != "" {
		served = run.Worker
	}
	fmt.Fprintf(os.Stderr, "delrepsim: served by %s (source %s)\n", served, run.Source)
	printRun(cfg, simspec.NewResult(norm, run.Results, run.Digest), jsonOut)
}

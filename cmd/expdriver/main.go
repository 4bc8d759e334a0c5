// Command expdriver regenerates every table and figure of the paper's
// evaluation. Each subcommand evaluates one Figure value of
// internal/experiment and prints its tables, with the paper's reference
// values where the paper states them, so shape can be compared directly.
//
// Usage:
//
//	expdriver [-quick] [-warm N] [-cycles N] [-seed N] [engine flags] <experiment> [...]
//	expdriver all            # every experiment in paper order
//	expdriver list           # list experiments
//
// -quick shrinks the simulation windows and the workload set; use it to
// validate the harness before a full run. "all" anywhere selects every
// experiment; any other unknown name exits 2 before a simulation runs.
// The engine flags (-j, -cache, the profiles) are
// experiment.EngineFlags, shared with delrepsim and described there;
// stdout is byte-identical at any setting of them. expdriver runs
// everything in this process and links no network code; expremote is
// the same driver plus -remote.
package main

import (
	"flag"
	"os"

	"delrep/internal/experiment"
)

func main() {
	os.Exit(experiment.Main(flag.NewFlagSet("expdriver", flag.ExitOnError), os.Args[1:], nil))
}

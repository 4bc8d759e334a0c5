// Command expremote is expdriver plus -remote URL: the same figure
// driver (experiment.Main), with cache-missing simulations delegated to
// a delrepd daemon or a delrepfleet coordinator. Points the wire spec
// can express run there, exotic sensitivity points run locally, and
// stdout is byte-identical to a local expdriver run:
//
//	expdriver -quick fig2 clog > local.out
//	expremote -quick -remote http://fleet:9090 fig2 clog > fleet.out
//	cmp local.out fleet.out
//
// It reports as expdriver on stderr and to the endpoint's admission
// control. It is a separate command so that expdriver, which never
// delegates, links no network code and starts as a static binary.
package main

import (
	"flag"
	"os"

	"delrep/internal/experiment"
	"delrep/internal/remote"
)

func main() {
	fs := flag.NewFlagSet("expremote", flag.ExitOnError)
	os.Exit(experiment.Main(fs, os.Args[1:], remote.Bind(fs).Resolver))
}

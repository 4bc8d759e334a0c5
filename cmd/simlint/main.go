// Command simlint is the simulator's correctness linter: a
// multichecker that runs the custom determinism/measurement analyzers
// from internal/lint over the module. `go vet` is separate: `make lint`
// runs both.
//
// Usage:
//
//	go run ./cmd/simlint ./...
//	go run ./cmd/simlint ./internal/core
//
// A finding can be suppressed with a //simlint:ignore comment on the
// flagged line or the line above it; an ignore that covers nothing is
// itself a finding. See the README's "Correctness tooling" section.
// The exit status is 1 when any analyzer reports a finding, 2 when the
// packages cannot be loaded.
package main

import (
	"flag"
	"fmt"
	"os"

	"delrep/internal/lint/analysis"
	"delrep/internal/lint/atomicmix"
	"delrep/internal/lint/ctxflow"
	"delrep/internal/lint/lockorder"
	"delrep/internal/lint/mapiter"
	"delrep/internal/lint/rngsource"
	"delrep/internal/lint/statsdiscipline"
	"delrep/internal/lint/tickpurity"
)

// analyzers is the simlint suite, in reporting order.
var analyzers = []*analysis.Analyzer{
	atomicmix.Analyzer,
	ctxflow.Analyzer,
	lockorder.Analyzer,
	mapiter.Analyzer,
	rngsource.Analyzer,
	statsdiscipline.Analyzer,
	tickpurity.Analyzer,
}

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: simlint [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Runs the simulator-specific analyzers. Analyzers:\n\n")
		for _, a := range analyzers {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-16s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(flag.CommandLine.Output(), "\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%s: %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	os.Exit(run(patterns))
}

// run lints the packages matching the patterns from the module around
// the working directory, prints one line per finding, and returns the
// exit status.
func run(patterns []string) int {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 2
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 2
	}
	findings := 0
	for _, pkg := range pkgs {
		if len(pkg.Syntax) == 0 {
			continue
		}
		diags, err := analysis.RunAnalyzers(pkg, analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			return 2
		}
		for _, d := range diags {
			fmt.Printf("%s: %s (%s)\n", pkg.Fset.Position(d.Pos), d.Message, d.Analyzer)
		}
		findings += len(diags)
	}
	if findings > 0 {
		fmt.Printf("simlint: %d finding(s)\n", findings)
		return 1
	}
	return 0
}

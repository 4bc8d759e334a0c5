package main

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"delrep/internal/lint/analysis"
)

// TestTreeLintsClean makes tier-1 `go test ./...` fail on a finding,
// stale //simlint:ignore comments included. go vet has its own CI step.
func TestTreeLintsClean(t *testing.T) {
	if status := run([]string{"./..."}); status != 0 {
		t.Fatalf("simlint ./... exited %d; the findings are on stdout", status)
	}
}

// TestDocsNameTheSuite requires the three lists of the suite — the
// README's "Correctness tooling" table, DESIGN.md §10's table (up to
// its table of retired analyzers) and internal/lint's package doc — to
// name exactly the analyzers simlint runs, so a fold or a retirement
// updates all three.
func TestDocsNameTheSuite(t *testing.T) {
	var want []string
	for _, a := range analyzers {
		want = append(want, a.Name)
	}
	slices.Sort(want)
	row := regexp.MustCompile("(?m)^\\| `(\\w+)` \\|")
	item := regexp.MustCompile(`(?m)^//   - (\w+):`)
	for _, doc := range []struct {
		file, from, to string
		name           *regexp.Regexp
	}{
		{"../../README.md", "\n## Correctness tooling\n", "\n## ", row},
		{"../../DESIGN.md", "\n## 10. ", "\nRetired in ", row},
		{"../../internal/lint/doc.go", "// Package lint ", "\npackage lint", item},
	} {
		raw, err := os.ReadFile(doc.file)
		if err != nil {
			t.Fatal(err)
		}
		_, text, ok := strings.Cut(string(raw), doc.from)
		if !ok {
			t.Fatalf("%s: no %q", doc.file, doc.from)
		}
		text, _, _ = strings.Cut(text, doc.to)
		var got []string
		for _, m := range doc.name.FindAllStringSubmatch(text, -1) {
			got = append(got, m[1])
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s names analyzers %v, the suite is %v", doc.file, got, want)
		}
	}
}

// TestPlantedMutations plants, one at a time, the bug each analyzer is
// kept for into an in-memory copy of the real file, and requires that
// exactly the named analyzers fire. An analyzer that stops firing here
// has stopped guarding the tree; an `old` anchor that no longer occurs
// once means the guarded code moved and the row must follow it.
func TestPlantedMutations(t *testing.T) {
	rows := []struct {
		name, pkg, file string
		edits           []string // old, new, old, new, ...
		want            []string
	}{
		{"time.Now in Router.tick", "internal/noc", "router.go",
			[]string{"import (\n", "import (\n\t\"time\"\n",
				"func (r *Router) tick() {\n", "func (r *Router) tick() {\n\t_ = time.Now()\n"},
			[]string{"rngsource", "tickpurity"}},
		{"goroutine spawned in Router.tick", "internal/noc", "router.go",
			[]string{"func (r *Router) tick() {\n", "func (r *Router) tick() {\n\tgo r.recount()\n"},
			[]string{"tickpurity"}},
		{"map range in Router.tick", "internal/noc", "router.go",
			[]string{"func (r *Router) tick() {\n", "func (r *Router) tick() {\n\tfor range map[int]bool{} {\n\t}\n"},
			[]string{"mapiter"}},
		{"global rand.Intn in workload", "internal/workload", "gpu.go",
			[]string{"g.rng.Intn(span)", "rand.Intn(span)"},
			[]string{"rngsource"}},
		{"counter with no reset path", "internal/core", "msg.go",
			[]string{"\ta.Legs++\n", "\ta.Legs++\n\ta.Delegs++\n"},
			[]string{"statsdiscipline"}},
		{"channel send under Engine.mu", "internal/runner", "runner.go",
			[]string{"\te.memo[k] = f\n", "\te.memo[k] = f\n\te.sem <- struct{}{}\n"},
			[]string{"lockorder"}},
		{"context.Background in a serve handler", "internal/serve", "serve.go",
			[]string{"j.Log().InfoContext(r.Context(), ", "j.Log().InfoContext(context.Background(), "},
			[]string{"ctxflow"}},
		{"context.Background as a method receiver in a serve handler", "internal/serve", "serve.go",
			[]string{"case <-r.Context().Done():", "case <-context.Background().Done():"},
			[]string{"ctxflow"}},
		{"function-style atomic", "internal/runner", "runner.go",
			[]string{"e.failed.Add(1)", "e.failed.Add(atomic.AddInt64(new(int64), 1))"},
			[]string{"atomicmix"}},
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			i := slices.IndexFunc(pkgs, func(p *analysis.Package) bool { return p.Path == "delrep/"+row.pkg })
			if i < 0 {
				t.Fatalf("package %s not loaded", row.pkg)
			}
			pkg := pkgs[i]
			target := filepath.Join(pkg.Dir, row.file)
			raw, err := os.ReadFile(target)
			if err != nil {
				t.Fatal(err)
			}
			src := string(raw)
			for e := 0; e < len(row.edits); e += 2 {
				if n := strings.Count(src, row.edits[e]); n != 1 {
					t.Fatalf("anchor %q occurs %d times in %s, want 1", row.edits[e], n, target)
				}
				src = strings.Replace(src, row.edits[e], row.edits[e+1], 1)
			}
			var files []string
			for _, f := range pkg.Syntax {
				files = append(files, pkg.Fset.Position(f.Package).Filename)
			}
			planted, err := loader.CheckFiles(pkg.Path, files, map[string][]byte{target: []byte(src)})
			if err != nil {
				t.Fatalf("planted source does not compile: %v", err)
			}
			diags, err := analysis.RunAnalyzers(planted, analyzers)
			if err != nil {
				t.Fatal(err)
			}
			var fired []string
			for _, d := range diags {
				t.Logf("%s: %s (%s)", planted.Fset.Position(d.Pos), d.Message, d.Analyzer)
				fired = append(fired, d.Analyzer)
			}
			slices.Sort(fired)
			if fired = slices.Compact(fired); !slices.Equal(fired, row.want) {
				t.Errorf("fired %v, want %v", fired, row.want)
			}
		})
	}
}

package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"delrep/internal/lint/analysis"
)

// TestTreeLintsClean makes tier-1 `go test ./...` fail on a finding,
// stale //simlint:ignore comments included. go vet has its own CI step.
func TestTreeLintsClean(t *testing.T) {
	if status := run([]string{"./..."}, false); status != 0 {
		t.Fatalf("simlint ./... exited %d; the findings are on stdout", status)
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
		// tile.Step both roots the hot path and drains the staging
		// buffers, so the router is inside both analyzers' reach.
		{"map range in Router.tick", "internal/noc", "router.go",
			[]string{"func (r *Router) tick() {\n", "func (r *Router) tick() {\n\tfor range map[int]bool{} {\n\t}\n"},
			[]string{"mapiter", "stagecommit"}},
		{"map range in a fifo.Stash method", "internal/fifo", "fifo.go",
			[]string{"func (s *Stash[T]) Reset() {\n", "func (s *Stash[T]) Reset() {\n\tfor range map[int]bool{} {\n\t}\n"},
			[]string{"stagecommit"}},
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

package main

import (
	"go/ast"
	"go/types"
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

// TestNoDeprecatedUse fences the compat API: the names kept only so
// that the benchmark module still compiles. Non-test code under cmd/
// and internal/ must not use a module symbol whose doc comment has a
// "Deprecated:" paragraph, except inside a declaration that is itself
// deprecated (a method of a deprecated type is one). Symbols are keyed
// by package path and qualified name, since an imported package's
// objects come from export data, not from the syntax that carries the
// doc comment.
func TestNoDeprecatedUse(t *testing.T) {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	deprecated := map[string]bool{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Syntax {
			ast.Inspect(file, func(n ast.Node) bool {
				if isDeprecated(n) {
					for _, id := range declaredNames(n) {
						deprecated[symbolKey(pkg.Info.Defs[id])] = true
					}
				}
				return true
			})
		}
	}
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.Path, "delrep/cmd/") && !strings.HasPrefix(pkg.Path, "delrep/internal/") {
			continue
		}
		for _, file := range pkg.Syntax {
			ast.Inspect(file, func(n ast.Node) bool {
				if isDeprecated(n) {
					return false
				}
				if fd, ok := n.(*ast.FuncDecl); ok && fd.Recv != nil {
					if tn := receiver(pkg.Info.Defs[fd.Name].(*types.Func)); tn != nil && deprecated[symbolKey(tn)] {
						return false
					}
				}
				if id, ok := n.(*ast.Ident); ok {
					if key := symbolKey(pkg.Info.Uses[id]); deprecated[key] {
						t.Errorf("%s: uses %s, which is deprecated: only the benchmark module may use the compat API",
							loader.Fset.Position(id.Pos()), key)
					}
				}
				return true
			})
		}
	}
}

// isDeprecated reports whether n is a declaration whose doc comment
// has a "Deprecated:" paragraph. A group's doc covers its specs.
func isDeprecated(n ast.Node) bool {
	var doc *ast.CommentGroup
	switch n := n.(type) {
	case *ast.FuncDecl:
		doc = n.Doc
	case *ast.GenDecl:
		doc = n.Doc
	case *ast.TypeSpec:
		doc = n.Doc
	case *ast.ValueSpec:
		doc = n.Doc
	case *ast.Field:
		doc = n.Doc
	}
	return doc != nil && slices.ContainsFunc(strings.Split(doc.Text(), "\n\n"), func(p string) bool {
		return strings.HasPrefix(p, "Deprecated: ")
	})
}

// declaredNames returns the names declaration n declares itself, not
// those of the parameters or locals inside it.
func declaredNames(n ast.Node) []*ast.Ident {
	switch n := n.(type) {
	case *ast.FuncDecl:
		return []*ast.Ident{n.Name}
	case *ast.GenDecl:
		var ids []*ast.Ident
		for _, spec := range n.Specs {
			ids = append(ids, declaredNames(spec)...)
		}
		return ids
	case *ast.TypeSpec:
		return []*ast.Ident{n.Name}
	case *ast.ValueSpec:
		return n.Names
	case *ast.Field:
		return n.Names
	}
	return nil
}

// symbolKey names a module symbol by package path and qualified name
// ("delrep/internal/core.System.SetParallel",
// "delrep/internal/core.PhaseProfile.NodeCommit"), or "" for anything
// else.
func symbolKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), "delrep/") {
		return ""
	}
	name := obj.Name()
	switch obj := obj.(type) {
	case *types.Func:
		if tn := receiver(obj); tn != nil {
			name = tn.Name() + "." + name
		}
	case *types.Var:
		if !obj.IsField() {
			break
		}
		scope := obj.Pkg().Scope()
		for _, tn := range scope.Names() {
			if st, ok := scope.Lookup(tn).Type().Underlying().(*types.Struct); ok {
				for i := range st.NumFields() {
					if st.Field(i) == obj {
						name = tn + "." + name
					}
				}
			}
		}
	}
	return obj.Pkg().Path() + "." + name
}

// receiver returns the named type method fn is declared on, or nil
// for a function.
func receiver(fn *types.Func) *types.TypeName {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
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
			[]string{"j.Log(r.Context(), ", "j.Log(context.Background(), "},
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

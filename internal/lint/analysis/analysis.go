// Package analysis is a minimal, stdlib-only re-implementation of the
// parts of the golang.org/x/tools/go/analysis API that simlint needs.
// The build environment for this repository is offline, so the real
// framework cannot be vendored; this package keeps the same shape
// (Analyzer, Pass, Diagnostic) so the analyzers could be ported to a
// stock multichecker by changing only import paths.
//
// Findings can be suppressed with a comment on the flagged line or the
// line directly above it:
//
//	//simlint:ignore mapiter reason for the exception
//	//simlint:ignore            (suppresses every analyzer)
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //simlint:ignore comments.
	Name string
	// Doc is the analyzer's human-readable documentation.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	PkgPath   string
	TypesInfo *types.Info

	diags   []Diagnostic
	ignores ignores
}

// Reportf records a finding unless a //simlint:ignore comment covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.ignores.covers(p.Fset.Position(pos), p.Analyzer.Name) {
		return
	}
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// ignore is one //simlint:ignore comment.
type ignore struct {
	pos  token.Position
	at   token.Pos
	name string // the analyzer it excuses; "" excuses all of them
	used bool   // it has covered at least one finding
}

// ignores is every //simlint:ignore comment of one package.
type ignores []*ignore

const ignoreDirective = "simlint:ignore"

func collectIgnores(fset *token.FileSet, files []*ast.File) ignores {
	var out ignores
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, ignoreDirective) {
					continue
				}
				// The first token after the directive names the analyzer;
				// everything after it is the reason.
				ig := &ignore{pos: fset.Position(c.Pos()), at: c.Pos()}
				if fields := strings.Fields(strings.TrimPrefix(text, ignoreDirective)); len(fields) > 0 {
					ig.name = fields[0]
				}
				out = append(out, ig)
			}
		}
	}
	return out
}

// covers reports whether a finding by the named analyzer at pos is
// suppressed by a directive on the same line or the line above, and
// marks each such directive as used.
func (igs ignores) covers(pos token.Position, analyzer string) bool {
	covered := false
	for _, ig := range igs {
		if ig.pos.Filename == pos.Filename && (ig.pos.Line == pos.Line || ig.pos.Line == pos.Line-1) &&
			(ig.name == "" || ig.name == analyzer) {
			ig.used = true
			covered = true
		}
	}
	return covered
}

// stale returns one finding per directive that names an analyzer
// outside the suite or that covered nothing, so a suppression cannot
// outlive the code or the analyzer it excused. These findings cannot
// themselves be ignored.
func (igs ignores) stale(analyzers []*Analyzer) []Diagnostic {
	known := map[string]bool{"": true}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var out []Diagnostic
	for _, ig := range igs {
		switch {
		case !known[ig.name]:
			out = append(out, Diagnostic{Pos: ig.at, Analyzer: "simlint",
				Message: fmt.Sprintf("//simlint:ignore names unknown analyzer %q", ig.name)})
		case !ig.used:
			out = append(out, Diagnostic{Pos: ig.at, Analyzer: "simlint",
				Message: "unused //simlint:ignore: it covers no finding on its line or the next"})
		}
	}
	return out
}

// RunAnalyzers applies each analyzer to the package and returns the
// combined findings, stale //simlint:ignore comments included, sorted
// by position.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	igs := collectIgnores(pkg.Fset, pkg.Syntax)
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Syntax,
			Pkg:       pkg.Types,
			PkgPath:   pkg.Path,
			TypesInfo: pkg.Info,
			ignores:   igs,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
		out = append(out, pass.diags...)
	}
	out = append(out, igs.stale(analyzers)...)
	sort.Slice(out, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(out[i].Pos), pkg.Fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// Package analysistest runs an analyzer over golden fixture packages,
// mirroring golang.org/x/tools/go/analysis/analysistest: fixture
// sources live under testdata/src/<importpath>/, and expected findings
// are marked with trailing comments of the form
//
//	code() // want `regexp` `another regexp`
//
// Each diagnostic must match a want on its line, and each want must be
// matched by at least one diagnostic.
package analysistest

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"delrep/internal/lint/analysis"
)

var wantRE = regexp.MustCompile("//\\s*want\\s+((?:(?:`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\")\\s*)+)")
var wantArgRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

// Run loads each fixture package from testdata/src/<path>, applies the
// analyzer, and compares diagnostics against // want comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, paths ...string) {
	t.Helper()
	loader, err := analysis.NewLoader(testdata)
	if err != nil {
		t.Fatalf("locating module root: %v", err)
	}
	loader.TestdataSrc = filepath.Join(testdata, "src")
	for _, path := range paths {
		dir := filepath.Join(testdata, "src", filepath.FromSlash(path))
		pkg, err := loader.LoadDir(dir, path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		diags, err := analysis.RunAnalyzers(pkg, []*analysis.Analyzer{a})
		if err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, path, err)
		}
		wants := collectWants(t, pkg)
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			key := lineKey{pos.Filename, pos.Line}
			if !matchWant(wants[key], d.Message) {
				t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
			}
		}
		for key, exps := range wants {
			for _, e := range exps {
				if !e.matched {
					t.Errorf("%s:%d: no diagnostic matching %q", key.file, key.line, e.re)
				}
			}
		}
	}
}

type lineKey struct {
	file string
	line int
}

// collectWants parses // want comments out of the package's files.
func collectWants(t *testing.T, pkg *analysis.Package) map[lineKey][]*expectation {
	t.Helper()
	wants := map[lineKey][]*expectation{}
	for _, file := range pkg.Syntax {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := lineKey{pos.Filename, pos.Line}
				for _, arg := range wantArgRE.FindAllString(m[1], -1) {
					pattern, err := unquoteWant(arg)
					if err != nil {
						t.Fatalf("%s: bad want pattern %s: %v", pos, arg, err)
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pattern, err)
					}
					wants[key] = append(wants[key], &expectation{re: re})
				}
			}
		}
	}
	return wants
}

func unquoteWant(s string) (string, error) {
	if strings.HasPrefix(s, "`") {
		return strings.Trim(s, "`"), nil
	}
	return strconv.Unquote(s)
}

// matchWant marks and returns whether some expectation matches msg.
func matchWant(exps []*expectation, msg string) bool {
	for _, e := range exps {
		if !e.matched && e.re.MatchString(msg) {
			e.matched = true
			return true
		}
	}
	// Allow several diagnostics to share one want (e.g. the same
	// message reported by two code paths on one line).
	for _, e := range exps {
		if e.re.MatchString(msg) {
			return true
		}
	}
	return false
}

// Package ctxflow keeps cancellation flowing. The daemon's shutdown
// path, the runner's futures, and every HTTP handler are built around
// context propagation; a context.Background() in the middle of that
// chain silently detaches everything below it from drain deadlines and
// client disconnects.
//
// Two rules:
//
// R1 — a function with a context in scope calls a context-less
// function even though a context-aware sibling exists: a package-local
// FCtx/FContext variant whose first parameter is a context, or a
// well-known stdlib pair (exec.Command vs exec.CommandContext,
// http.Get vs http.NewRequestWithContext, net.Dial vs
// net.Dialer.DialContext).
//
// R2 — context.Background() or context.TODO() is called while a
// usable context is already in scope: an earlier context parameter or
// local, or an *http.Request parameter (whose r.Context() carries the
// client disconnect), of the function or of a function enclosing it.
// Declared functions and function literals are checked alike, and Go's
// own scoping says what is in scope. The function's own root context
// creation — a Background with no earlier context in scope, as in
// main() — is the legitimate use and is not flagged.
package ctxflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"delrep/internal/lint/analysis"
)

// Analyzer flags context-less calls and fresh Background contexts where
// a live context is available.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "flag context.Background()/TODO() and context-less call variants " +
		"where a context is already in scope",
	Run: run,
}

// stdlibPairs maps "pkgpath.Func" to the context-aware replacement.
var stdlibPairs = map[string]string{
	"os/exec.Command":   "exec.CommandContext",
	"net.Dial":          "(&net.Dialer{}).DialContext",
	"net.DialTimeout":   "(&net.Dialer{}).DialContext",
	"net/http.Get":      "http.NewRequestWithContext",
	"net/http.Head":     "http.NewRequestWithContext",
	"net/http.Post":     "http.NewRequestWithContext",
	"net/http.PostForm": "http.NewRequestWithContext",
}

func run(pass *analysis.Pass) error {
	// sig records each signature variable as a parameter (true) or a
	// named result (false); ast.Inspect visits a signature before the
	// body it scopes.
	sig := map[types.Object]bool{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncType:
				for _, fl := range []*ast.FieldList{n.Params, n.Results} {
					if fl == nil {
						continue
					}
					for _, field := range fl.List {
						for _, name := range field.Names {
							sig[pass.TypesInfo.Defs[name]] = fl == n.Params
						}
					}
				}
			case *ast.CallExpr:
				check(pass, sig, n)
			}
			return true
		})
	}
	return nil
}

func check(pass *analysis.Pass, sig map[types.Object]bool, call *ast.CallExpr) {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || takesContext(fn) {
		return
	}
	key := fn.Pkg().Path() + "." + fn.Name()
	root := key == "context.Background" || key == "context.TODO"
	// Package-level functions only: http.Header.Get is not http.Get.
	repl, pair := stdlibPairs[key]
	pair = pair && fn.Type().(*types.Signature).Recv() == nil
	sib := ""
	if !root && !pair {
		if sib = contextSibling(fn); sib == "" {
			return
		}
	}
	cur := inScope(pass, sig, call.Pos())
	switch {
	case cur == "":
		// R1 and R2 apply only when the caller has a context to pass.
	case root:
		pass.Reportf(call.Pos(),
			"context.%s() discards the in-scope context %s: work started here outlives cancellation and drain deadlines",
			fn.Name(), cur)
	case pair:
		pass.Reportf(call.Pos(),
			"%s ignores the in-scope context %s: use %s so the operation observes cancellation",
			key, cur, repl)
	default:
		pass.Reportf(call.Pos(),
			"%s has a context-aware variant %s: call it with %s instead of dropping cancellation",
			fn.Name(), sib, cur)
	}
}

// inScope names the context source bound last before pos, as the
// messages name it — a context variable "ctx" or an *http.Request
// parameter "r.Context()" — or returns "". The type checker's scopes
// decide what is visible: a binding counts only after its declaring
// statement, one made in an if/for/switch header or a case body ends
// with it, and a function literal sees what encloses it. Named
// results start nil and package-level variables are no caller's
// context, so neither counts.
func inScope(pass *analysis.Pass, sig map[types.Object]bool, pos token.Pos) string {
	pkg := pass.Pkg.Scope()
	inner := pkg.Innermost(pos)
	var last *types.Var
	name := ""
	for s := inner; s != nil && s != pkg; s = s.Parent() {
		for _, n := range s.Names() {
			obj, ok := s.Lookup(n).(*types.Var)
			if _, vis := inner.LookupParent(n, pos); !ok || vis != obj || (last != nil && obj.Pos() < last.Pos()) {
				continue
			}
			param, declared := sig[obj]
			if isContext(obj.Type()) && (param || !declared) {
				last, name = obj, n
			} else if isHTTPRequest(obj.Type()) && param {
				last, name = obj, n+".Context()"
			}
		}
	}
	return name
}

// contextSibling looks for FCtx/FContext next to fn — same package
// scope for functions, same method set for methods — whose first
// parameter is a context.
func contextSibling(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	for _, suffix := range []string{"Ctx", "Context"} {
		name := fn.Name() + suffix
		if sig.Recv() == nil {
			if fn.Pkg() == nil {
				continue
			}
			if alt, ok := fn.Pkg().Scope().Lookup(name).(*types.Func); ok && takesContext(alt) {
				return name
			}
			continue
		}
		t := sig.Recv().Type()
		if p, ok := types.Unalias(t).(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := types.Unalias(t).(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			if m.Name() == name && takesContext(m) {
				return name
			}
		}
	}
	return ""
}

// takesContext reports whether fn's first parameter is context.Context.
func takesContext(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return false
	}
	return isContext(sig.Params().At(0).Type())
}

func isContext(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

func isHTTPRequest(t types.Type) bool {
	if t == nil {
		return false
	}
	p, ok := types.Unalias(t).(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := types.Unalias(p.Elem()).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "Request"
}

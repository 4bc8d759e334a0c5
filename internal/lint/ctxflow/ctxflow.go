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
// local, or an *http.Request (whose r.Context() carries the client
// disconnect). The function's own root context creation — a Background
// with no earlier context in scope, as in main() — is the legitimate
// use and is not flagged.
package ctxflow

import (
	"go/ast"
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
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &walker{pass: pass}
			w.seed(fd.Type)
			w.block(fd.Body)
		}
	}
	return nil
}

type walker struct {
	pass *analysis.Pass
	// inScope holds the context sources visible at this point, as the
	// messages name them: "ctx" or "r.Context()".
	inScope []string
}

// seed registers the function's parameters.
func (w *walker) seed(ft *ast.FuncType) {
	if ft.Params == nil {
		return
	}
	for _, field := range ft.Params.List {
		t := w.pass.TypesInfo.TypeOf(field.Type)
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			if isContext(t) {
				w.inScope = append(w.inScope, name.Name)
			} else if isHTTPRequest(t) {
				w.inScope = append(w.inScope, name.Name+".Context()")
			}
		}
	}
}

// current returns the most recently bound context, or "".
func (w *walker) current() string {
	if len(w.inScope) == 0 {
		return ""
	}
	return w.inScope[len(w.inScope)-1]
}

func (w *walker) block(b *ast.BlockStmt) {
	mark := len(w.inScope)
	for _, s := range b.List {
		w.stmt(s)
	}
	w.inScope = w.inScope[:mark]
}

func (w *walker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e)
		}
		// A context-typed binding comes into scope after its RHS is
		// checked, so the root `ctx := context.WithTimeout(
		// context.Background(), d)` stays legal.
		for _, e := range s.Lhs {
			if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
				if isContext(w.pass.TypesInfo.TypeOf(id)) {
					w.inScope = append(w.inScope, id.Name)
				}
			}
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, v := range vs.Values {
					w.expr(v)
				}
				for _, name := range vs.Names {
					if name.Name != "_" && isContext(w.pass.TypesInfo.TypeOf(name)) {
						w.inScope = append(w.inScope, name.Name)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e)
		}
	case *ast.IfStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		w.block(s.Body)
		if s.Else != nil {
			w.stmt(s.Else)
		}
	case *ast.ForStmt:
		w.stmt(s.Init)
		if s.Cond != nil {
			w.expr(s.Cond)
		}
		w.stmt(s.Post)
		w.block(s.Body)
	case *ast.RangeStmt:
		w.expr(s.X)
		w.block(s.Body)
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		if s.Tag != nil {
			w.expr(s.Tag)
		}
		w.caseBodies(s.Body)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init)
		w.caseBodies(s.Body)
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.stmt(cc.Comm)
				for _, st := range cc.Body {
					w.stmt(st)
				}
			}
		}
	case *ast.BlockStmt:
		w.block(s)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.DeferStmt:
		w.expr(s.Call)
	case *ast.GoStmt:
		w.expr(s.Call)
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
	case *ast.IncDecStmt:
		w.expr(s.X)
	}
}

func (w *walker) caseBodies(body *ast.BlockStmt) {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			for _, e := range cc.List {
				w.expr(e)
			}
			for _, st := range cc.Body {
				w.stmt(st)
			}
		}
	}
}

func (w *walker) expr(e ast.Expr) {
	switch e := e.(type) {
	case nil:
	case *ast.CallExpr:
		w.call(e)
	case *ast.ParenExpr:
		w.expr(e.X)
	case *ast.UnaryExpr:
		w.expr(e.X)
	case *ast.BinaryExpr:
		w.expr(e.X)
		w.expr(e.Y)
	case *ast.SelectorExpr:
		w.expr(e.X)
	case *ast.IndexExpr:
		w.expr(e.X)
		w.expr(e.Index)
	case *ast.StarExpr:
		w.expr(e.X)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			w.expr(el)
		}
	case *ast.KeyValueExpr:
		w.expr(e.Value)
	case *ast.TypeAssertExpr:
		w.expr(e.X)
	case *ast.FuncLit:
		// A literal sees the enclosing contexts (it closes over them)
		// but bindings inside it stay inside.
		mark := len(w.inScope)
		w.block(e.Body)
		w.inScope = w.inScope[:mark]
	}
}

func (w *walker) call(call *ast.CallExpr) {
	// The callee holds calls of its own: a method's receiver, as in
	// context.Background().Done(), or a called literal's body.
	w.expr(call.Fun)
	for _, a := range call.Args {
		w.expr(a)
	}
	fn := calleeFunc(w.pass, call)
	if fn == nil {
		return
	}

	// R2: a fresh root context while a live one is in scope.
	if fn.Pkg() != nil && fn.Pkg().Path() == "context" &&
		(fn.Name() == "Background" || fn.Name() == "TODO") {
		if cur := w.current(); cur != "" {
			w.pass.Reportf(call.Pos(),
				"context.%s() discards the in-scope context %s: work started here outlives cancellation and drain deadlines",
				fn.Name(), cur)
		}
		return
	}

	// R1 applies only when the caller actually has a context to pass.
	if w.current() == "" {
		return
	}
	if takesContext(fn) {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil && fn.Pkg() != nil {
		// Package-level functions only: http.Header.Get is not http.Get.
		key := fn.Pkg().Path() + "." + fn.Name()
		if repl, ok := stdlibPairs[key]; ok {
			w.pass.Reportf(call.Pos(),
				"%s ignores the in-scope context %s: use %s so the operation observes cancellation",
				key, w.current(), repl)
			return
		}
	}
	if sib := contextSibling(fn); sib != "" {
		w.pass.Reportf(call.Pos(),
			"%s has a context-aware variant %s: call it with %s instead of dropping cancellation",
			fn.Name(), sib, w.current())
	}
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

func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	}
	return nil
}

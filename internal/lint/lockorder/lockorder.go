// Package lockorder enforces the concurrency discipline the parallel
// runner and the serve daemon depend on, in two parts.
//
// Blocking under a lock: while a sync.Mutex or sync.RWMutex is held, a
// function must not perform an operation of unbounded latency — a
// channel send or receive (outside a select with a default case), a
// sync.WaitGroup.Wait, a time.Sleep, or a write to an interface-typed
// writer (io.Writer, http.ResponseWriter: the concrete value behind an
// interface may be a network connection; writes to concrete in-memory
// buffers are not flagged). A slow consumer would hold the lock
// against every other goroutine, turning one stalled HTTP client into
// a stalled daemon. Locking a mutex that is already held is flagged as
// a self-deadlock.
//
// Acquisition order: for every function the analyzer records which
// mutex was acquired while which other mutex was held, keyed by the
// receiver type and field (so "s.mu before s.pruneMu" in one method
// and "e.pruneMu before e.mu" in another meet as the same pair). Two
// functions acquiring the same pair in opposite orders can deadlock
// under concurrency; both sites are reported.
//
// sync.Cond.Wait is exempt — it releases the associated lock while
// blocked; that is its contract.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"delrep/internal/lint/analysis"
)

// Analyzer flags blocking operations under held mutexes and
// inconsistent lock-acquisition order.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "flag blocking operations (channel ops, WaitGroup.Wait, " +
		"interface-writer writes, time.Sleep) while a mutex is held, " +
		"double-locking, and inconsistent two-mutex acquisition order",
	Run: run,
}

// lockOp classifies one mutex method call.
type lockOp int

const (
	opNone lockOp = iota
	opLock
	opRLock
	opUnlock
	opRUnlock
)

// heldLock is one currently-held mutex.
type heldLock struct {
	id       string
	pos      token.Pos
	deferred bool // held to function end via defer Unlock
	reader   bool
}

// orderEdge records "b acquired while a held" at pos.
type orderEdge struct {
	pos      token.Pos
	funcName string
}

func run(pass *analysis.Pass) error {
	edges := map[[2]string]orderEdge{} // [held, acquired] -> first site

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					w := &funcWalker{pass: pass, fn: d.Name.Name, edges: edges}
					w.block(d.Body, nil)
				}
			case *ast.GenDecl:
				w := &funcWalker{pass: pass, fn: "a func literal", edges: edges}
				w.scanFuncLits(d)
			}
		}
	}

	// Inconsistent order: both (A,B) and (B,A) edges exist. Report each
	// conflicting pair once, at both sites, in deterministic order.
	var keys [][2]string
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		if k[0] >= k[1] {
			continue // handle each unordered pair once, from its lesser key
		}
		rev := [2]string{k[1], k[0]}
		e1, ok1 := edges[k]
		e2, ok2 := edges[rev]
		if !ok1 || !ok2 {
			continue
		}
		pass.Reportf(e1.pos,
			"%s acquired while %s is held here (in %s), but %s reverses the order: lock %s and %s in one consistent order or deadlock under contention",
			k[1], k[0], e1.funcName, e2.funcName, k[0], k[1])
		pass.Reportf(e2.pos,
			"%s acquired while %s is held here (in %s), but %s reverses the order: lock %s and %s in one consistent order or deadlock under contention",
			k[0], k[1], e2.funcName, e1.funcName, k[0], k[1])
	}
	return nil
}

// funcWalker tracks held locks through one function (or function
// literal) body. Branch bodies get copies of the held set, so an
// early-return unlock inside an if does not leak out.
type funcWalker struct {
	pass  *analysis.Pass
	fn    string
	edges map[[2]string]orderEdge
}

// block walks stmts in order with the given held set and returns the
// set live at the end of the block.
func (w *funcWalker) block(b *ast.BlockStmt, held []heldLock) []heldLock {
	for _, s := range b.List {
		held = w.stmt(s, held)
	}
	return held
}

func (w *funcWalker) stmt(s ast.Stmt, held []heldLock) []heldLock {
	switch s := s.(type) {
	case nil:
		return held
	case *ast.ExprStmt:
		return w.expr(s.X, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			held = w.expr(e, held)
		}
		for _, e := range s.Lhs {
			held = w.expr(e, held)
		}
		return held
	case *ast.DeferStmt:
		if op, id := w.lockCall(s.Call); op == opUnlock || op == opRUnlock {
			for i := range held {
				if held[i].id == id {
					held[i].deferred = true
				}
			}
			return held
		}
		// Other deferred calls run at return; ignore their bodies for
		// the held set but still scan literals for nested functions.
		w.scanFuncLits(s.Call)
		return held
	case *ast.GoStmt:
		w.scanFuncLits(s.Call)
		return held
	case *ast.SendStmt:
		w.flagBlocked(s.Pos(), "channel send", held)
		held = w.expr(s.Chan, held)
		return w.expr(s.Value, held)
	case *ast.IncDecStmt:
		return w.expr(s.X, held)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			held = w.expr(e, held)
		}
		return held
	case *ast.BlockStmt:
		return w.block(s, held)
	case *ast.IfStmt:
		held = w.stmt(s.Init, held)
		held = w.expr(s.Cond, held)
		w.block(s.Body, copyHeld(held))
		if s.Else != nil {
			w.stmt(s.Else, copyHeld(held))
		}
		return held
	case *ast.ForStmt:
		held = w.stmt(s.Init, held)
		if s.Cond != nil {
			held = w.expr(s.Cond, held)
		}
		inner := copyHeld(held)
		inner = w.stmt(s.Post, inner)
		w.block(s.Body, inner)
		return held
	case *ast.RangeStmt:
		held = w.expr(s.X, held)
		w.block(s.Body, copyHeld(held))
		return held
	case *ast.SwitchStmt:
		held = w.stmt(s.Init, held)
		if s.Tag != nil {
			held = w.expr(s.Tag, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, st := range cc.Body {
					w.stmt(st, copyHeld(held))
				}
			}
		}
		return held
	case *ast.TypeSwitchStmt:
		held = w.stmt(s.Init, held)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, st := range cc.Body {
					w.stmt(st, copyHeld(held))
				}
			}
		}
		return held
	case *ast.SelectStmt:
		w.selectStmt(s, held)
		return held
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						held = w.expr(v, held)
					}
				}
			}
		}
		return held
	}
	return held
}

// selectStmt: a select with a default case never blocks on its
// communications, so sends/receives in the comm positions are exempt;
// case bodies run after selection and are scanned normally.
func (w *funcWalker) selectStmt(s *ast.SelectStmt, held []heldLock) {
	hasDefault := false
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		w.flagBlocked(s.Pos(), "blocking select", held)
	}
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		for _, st := range cc.Body {
			w.stmt(st, copyHeld(held))
		}
	}
}

func (w *funcWalker) expr(e ast.Expr, held []heldLock) []heldLock {
	switch e := e.(type) {
	case nil:
		return held
	case *ast.CallExpr:
		return w.call(e, held)
	case *ast.ParenExpr:
		return w.expr(e.X, held)
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			w.flagBlocked(e.Pos(), "channel receive", held)
		}
		return w.expr(e.X, held)
	case *ast.BinaryExpr:
		held = w.expr(e.X, held)
		return w.expr(e.Y, held)
	case *ast.SelectorExpr:
		return w.expr(e.X, held)
	case *ast.IndexExpr:
		held = w.expr(e.X, held)
		return w.expr(e.Index, held)
	case *ast.StarExpr:
		return w.expr(e.X, held)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			held = w.expr(el, held)
		}
		return held
	case *ast.KeyValueExpr:
		return w.expr(e.Value, held)
	case *ast.FuncLit:
		// A literal's body runs when called, with its own lock scope.
		w.block(e.Body, nil)
		return held
	}
	return held
}

func (w *funcWalker) call(call *ast.CallExpr, held []heldLock) []heldLock {
	// Walk arguments first (they evaluate before the call).
	for _, a := range call.Args {
		held = w.expr(a, held)
	}

	op, id := w.lockCall(call)
	switch op {
	case opLock, opRLock:
		for _, h := range held {
			if h.id == id && !(h.reader && op == opRLock) {
				w.pass.Reportf(call.Pos(),
					"%s locked while already held (acquired at %s): self-deadlock",
					id, w.pass.Fset.Position(h.pos))
				return held
			}
			if h.id != id {
				key := [2]string{h.id, id}
				if _, ok := w.edges[key]; !ok {
					w.edges[key] = orderEdge{pos: call.Pos(), funcName: w.fn}
				}
			}
		}
		return append(held, heldLock{id: id, pos: call.Pos(), reader: op == opRLock})
	case opUnlock, opRUnlock:
		for i := len(held) - 1; i >= 0; i-- {
			if held[i].id == id && !held[i].deferred {
				return append(held[:i:i], held[i+1:]...)
			}
		}
		return held
	}

	w.checkBlockingCall(call, held)
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		held = w.expr(sel.X, held)
	}
	return held
}

// lockCall classifies call as a mutex operation and returns the mutex
// identity.
func (w *funcWalker) lockCall(call *ast.CallExpr) (lockOp, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return opNone, ""
	}
	fn, ok := w.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return opNone, ""
	}
	recv := recvTypeName(fn)
	if recv != "Mutex" && recv != "RWMutex" {
		return opNone, ""
	}
	id := mutexID(w.pass, sel.X)
	switch fn.Name() {
	case "Lock", "TryLock":
		return opLock, id
	case "RLock", "TryRLock":
		return opRLock, id
	case "Unlock":
		return opUnlock, id
	case "RUnlock":
		return opRUnlock, id
	}
	return opNone, ""
}

// checkBlockingCall flags calls of unbounded latency under a held lock.
func (w *funcWalker) checkBlockingCall(call *ast.CallExpr, held []heldLock) {
	if len(held) == 0 {
		return
	}
	sel, selOK := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	var fn *types.Func
	if selOK {
		fn, _ = w.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	} else if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		fn, _ = w.pass.TypesInfo.Uses[id].(*types.Func)
	}
	if fn == nil || fn.Pkg() == nil {
		return
	}
	pkg, name := fn.Pkg().Path(), fn.Name()

	switch {
	case pkg == "sync" && name == "Wait" && recvTypeName(fn) == "WaitGroup":
		w.flagBlocked(call.Pos(), "sync.WaitGroup.Wait", held)
	case pkg == "time" && name == "Sleep":
		w.flagBlocked(call.Pos(), "time.Sleep", held)
	case pkg == "io" && (name == "WriteString" || name == "Copy"):
		if len(call.Args) > 0 && isInterface(w.pass.TypesInfo.TypeOf(call.Args[0])) {
			w.flagBlocked(call.Pos(), "io."+name+" to an interface writer", held)
		}
	case pkg == "fmt" && (name == "Fprintf" || name == "Fprint" || name == "Fprintln"):
		if len(call.Args) > 0 && isInterface(w.pass.TypesInfo.TypeOf(call.Args[0])) {
			w.flagBlocked(call.Pos(), "fmt."+name+" to an interface writer", held)
		}
	default:
		// Interface method writes: w.Write, w.WriteString, w.WriteHeader,
		// w.Flush, w.ReadFrom on an interface-typed receiver.
		if selOK {
			switch name {
			case "Write", "WriteString", "WriteHeader", "Flush", "ReadFrom":
				if isInterface(w.pass.TypesInfo.TypeOf(sel.X)) {
					w.flagBlocked(call.Pos(), "interface-writer "+name, held)
				}
			}
		}
	}
}

func (w *funcWalker) flagBlocked(pos token.Pos, what string, held []heldLock) {
	if len(held) == 0 {
		return
	}
	h := held[len(held)-1]
	w.pass.Reportf(pos,
		"%s while %s is held (acquired at %s): a blocked %s holds the lock against every other goroutine",
		what, h.id, w.pass.Fset.Position(h.pos), what)
}

// scanFuncLits analyzes function literals nested in e with a fresh
// lock scope (used for go/defer call arguments, whose bodies run
// outside the current critical section, and package-level values).
func (w *funcWalker) scanFuncLits(e ast.Node) {
	ast.Inspect(e, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			w.block(fl.Body, nil)
			return false
		}
		return true
	})
}

func copyHeld(held []heldLock) []heldLock {
	out := make([]heldLock, len(held))
	copy(out, held)
	return out
}

func isInterface(t types.Type) bool {
	return t != nil && types.IsInterface(t)
}

// recvTypeName returns the name of fn's receiver type, pointers
// stripped.
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := types.Unalias(sig.Recv().Type())
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// mutexID names a mutex stably across functions: field selectors are
// keyed by the owning type ("(*Server).mu"), identifiers by their
// object (package-level vars by package-qualified name, locals by
// name).
func mutexID(pass *analysis.Pass, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if t := pass.TypesInfo.TypeOf(e.X); t != nil {
			t = types.Unalias(t)
			if p, ok := t.(*types.Pointer); ok {
				t = types.Unalias(p.Elem())
			}
			if named, ok := t.(*types.Named); ok {
				return fmt.Sprintf("(%s).%s", named.Obj().Name(), e.Sel.Name)
			}
		}
		return types.ExprString(e)
	case *ast.Ident:
		if obj := pass.TypesInfo.Uses[e]; obj != nil && obj.Pkg() != nil {
			if obj.Parent() == obj.Pkg().Scope() {
				return obj.Pkg().Name() + "." + e.Name
			}
		}
		return e.Name
	}
	return strings.TrimSpace(types.ExprString(e))
}

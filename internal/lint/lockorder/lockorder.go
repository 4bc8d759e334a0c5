// Package lockorder enforces the concurrency discipline the parallel
// runner and the serve daemon depend on, in two parts.
//
// Blocking under a lock: while a sync.Mutex or sync.RWMutex is held, a
// function must not perform an operation of unbounded latency — a
// channel send or receive (ranging over a channel included; outside a
// select with a default case), a sync.WaitGroup.Wait, a time.Sleep, or
// a write to an interface-typed writer (io.Writer, http.ResponseWriter:
// the concrete value behind an interface may be a network connection;
// writes to concrete in-memory buffers are not flagged). A slow
// consumer would hold the lock against every other goroutine, turning
// one stalled HTTP client into a stalled daemon. Locking a mutex that
// is already held is flagged as a self-deadlock.
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
	"slices"
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
			w := &funcWalker{pass: pass, fn: "a func literal", edges: edges}
			var root ast.Node = decl
			if d, ok := decl.(*ast.FuncDecl); ok {
				if d.Body == nil {
					continue
				}
				w.fn, root = d.Name.Name, d.Body
			}
			ast.Inspect(root, w.visit)
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

// funcWalker tracks held locks through one function body (or
// package-level declaration) in a single ast.Inspect pass. Locks are
// taken and released at their calls, in evaluation order; a branch
// (the body or else of an if, the body or post of a for, a range body,
// a case or comm clause) restores the held set on exit, so an
// early-return unlock inside an if does not leak out; a function
// literal runs later, with its own lock scope.
type funcWalker struct {
	pass  *analysis.Pass
	fn    string
	edges map[[2]string]orderEdge
	held  []heldLock
	stack []frame // the nodes being walked, innermost last
}

// frame is one node being walked: a branch or function literal
// restores saved when it ends.
type frame struct {
	node    ast.Node
	saved   []heldLock
	restore bool
}

func (w *funcWalker) visit(n ast.Node) bool {
	if n == nil {
		f := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		if f.restore {
			w.held = f.saved
		}
		return true
	}
	f := frame{node: n}
	if len(w.stack) > 0 {
		switch p := w.stack[len(w.stack)-1].node.(type) {
		case *ast.IfStmt:
			f.restore = n == p.Body || n == p.Else
		case *ast.ForStmt:
			f.restore = n == p.Body || n == p.Post
		case *ast.RangeStmt:
			f.restore = n == p.Body
		case *ast.CommClause:
			if n == p.Comm {
				w.commOperands(p.Comm)
				return false
			}
		}
	}
	switch n := n.(type) {
	case *ast.CaseClause, *ast.CommClause:
		f.restore = true
	case *ast.FuncLit:
		w.stack = append(w.stack, frame{node: n, saved: w.held, restore: true})
		w.held = nil
		return true
	case *ast.DeferStmt:
		if op, id := w.lockCall(n.Call); op == opUnlock || op == opRUnlock {
			for i := range w.held {
				if w.held[i].id == id {
					w.held[i].deferred = true
				}
			}
			return false
		}
		w.operands(n.Call)
		return false
	case *ast.GoStmt:
		w.operands(n.Call)
		return false
	case *ast.SelectStmt:
		// With a default case the select never blocks on its
		// communications.
		if !slices.ContainsFunc(n.Body.List, func(c ast.Stmt) bool { return c.(*ast.CommClause).Comm == nil }) {
			w.flagBlocked(n.Pos(), "blocking select")
		}
	case *ast.SendStmt:
		w.flagBlocked(n.Pos(), "channel send")
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			w.flagBlocked(n.Pos(), "channel receive")
		}
	case *ast.RangeStmt:
		if t := w.pass.TypesInfo.TypeOf(n.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				w.flagBlocked(n.Pos(), "channel receive")
			}
		}
	case *ast.CallExpr:
		w.call(n)
	}
	if f.restore {
		f.saved = slices.Clone(w.held)
	}
	w.stack = append(w.stack, f)
	return true
}

// operands walks what a go or defer statement evaluates now: the
// receiver or function value and the arguments, not the call itself.
func (w *funcWalker) operands(call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		fun = sel.X
	}
	ast.Inspect(fun, w.visit)
	for _, a := range call.Args {
		ast.Inspect(a, w.visit)
	}
}

// commOperands walks what a select evaluates on entry for one of its
// communications: a send's channel and value, a receive's channel. The
// communication itself is judged at the select.
func (w *funcWalker) commOperands(comm ast.Stmt) {
	var recv ast.Expr
	switch c := comm.(type) {
	case *ast.SendStmt:
		ast.Inspect(c.Chan, w.visit)
		ast.Inspect(c.Value, w.visit)
		return
	case *ast.ExprStmt:
		recv = c.X
	case *ast.AssignStmt:
		recv = c.Rhs[0]
	}
	if u, ok := ast.Unparen(recv).(*ast.UnaryExpr); ok {
		ast.Inspect(u.X, w.visit)
	}
}

// call applies a lock or unlock to the held set, or flags a blocking
// call under it.
func (w *funcWalker) call(call *ast.CallExpr) {
	op, id := w.lockCall(call)
	switch op {
	case opLock, opRLock:
		for _, h := range w.held {
			if h.id == id && !(h.reader && op == opRLock) {
				w.pass.Reportf(call.Pos(),
					"%s locked while already held (acquired at %s): self-deadlock",
					id, w.pass.Fset.Position(h.pos))
				return
			}
			if h.id != id {
				key := [2]string{h.id, id}
				if _, ok := w.edges[key]; !ok {
					w.edges[key] = orderEdge{pos: call.Pos(), funcName: w.fn}
				}
			}
		}
		w.held = append(w.held, heldLock{id: id, pos: call.Pos(), reader: op == opRLock})
	case opUnlock, opRUnlock:
		for i := len(w.held) - 1; i >= 0; i-- {
			if w.held[i].id == id && !w.held[i].deferred {
				w.held = append(w.held[:i:i], w.held[i+1:]...)
				return
			}
		}
	default:
		w.checkBlockingCall(call)
	}
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
func (w *funcWalker) checkBlockingCall(call *ast.CallExpr) {
	if len(w.held) == 0 {
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
		w.flagBlocked(call.Pos(), "sync.WaitGroup.Wait")
	case pkg == "time" && name == "Sleep":
		w.flagBlocked(call.Pos(), "time.Sleep")
	case pkg == "io" && (name == "WriteString" || name == "Copy"):
		if len(call.Args) > 0 && isInterface(w.pass.TypesInfo.TypeOf(call.Args[0])) {
			w.flagBlocked(call.Pos(), "io."+name+" to an interface writer")
		}
	case pkg == "fmt" && (name == "Fprintf" || name == "Fprint" || name == "Fprintln"):
		if len(call.Args) > 0 && isInterface(w.pass.TypesInfo.TypeOf(call.Args[0])) {
			w.flagBlocked(call.Pos(), "fmt."+name+" to an interface writer")
		}
	default:
		// Interface method writes: w.Write, w.WriteString, w.WriteHeader,
		// w.Flush, w.ReadFrom on an interface-typed receiver.
		if selOK {
			switch name {
			case "Write", "WriteString", "WriteHeader", "Flush", "ReadFrom":
				if isInterface(w.pass.TypesInfo.TypeOf(sel.X)) {
					w.flagBlocked(call.Pos(), "interface-writer "+name)
				}
			}
		}
	}
}

func (w *funcWalker) flagBlocked(pos token.Pos, what string) {
	if len(w.held) == 0 {
		return
	}
	h := w.held[len(w.held)-1]
	w.pass.Reportf(pos,
		"%s while %s is held (acquired at %s): a blocked %s holds the lock against every other goroutine",
		what, h.id, w.pass.Fset.Position(h.pos), what)
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

// Package locksend implements the dwarfvet analyzer for the SSE
// fan-out deadlock shape: a blocking channel send, or an invocation of
// a caller-supplied callback, executed while a sync.Mutex/RWMutex is
// held. If the receiver (or callback) needs the same lock — or is
// simply slow, as an SSE subscriber behind a stalled connection is —
// the lock is held indefinitely and every other path through it stops.
// The harness event path, the store, and dwarfserve's job/SSE layer are
// exactly the places the ROADMAP's fleet-control and replication rungs
// will multiply, so the shape is banned there by machine (-pkgs scopes
// it).
//
// Within a scoped package the analyzer tracks Lock/RLock...Unlock
// regions per function (a deferred Unlock holds to function end) and
// flags, inside a held region:
//
//   - channel send statements, except sends in a select that has a
//     default clause (those cannot block);
//   - calls through function-typed variables, fields, or parameters
//     (subscriber callbacks) — named functions and methods are assumed
//     to be lock-aware, dynamic callees are not.
//
// Goroutine bodies and deferred literals are not flagged for a lock held
// where they are launched or deferred (they run after that point, usually
// past the unlock), but their own Lock...Unlock regions are tracked. Other
// function literals are analyzed where they are defined, with the lock
// state at that point — including literals defined with no lock held,
// whose own regions are tracked like a function's.
package locksend

import (
	"go/ast"
	"go/types"

	"opendwarfs/internal/lint/analysis"
	"opendwarfs/internal/lint/lintutil"
)

// DefaultScope covers the packages with subscriber fan-out under
// mutexes today: the harness event path, the store and its slot cache,
// and dwarfserve's job/SSE layer.
const DefaultScope = "harness,store,dwarfserve"

var Analyzer = &analysis.Analyzer{
	Name: "locksend",
	Doc: "flags channel sends and callback invocations made while holding a sync mutex\n\n" +
		"Copy what must be published, unlock, then send; or annotate a\n" +
		"provably non-blocking site with //lint:allow locksend <reason>.",
	Run: run,
}

func init() {
	Analyzer.Flags.String("pkgs", DefaultScope,
		"comma-separated package scope (path elements or subtrees) the check applies to")
}

func run(pass *analysis.Pass) (interface{}, error) {
	scope := lintutil.SplitList(pass.Analyzer.Flags.Lookup("pkgs").Value.String())
	if !lintutil.InScope(pass.Pkg.Path(), scope) {
		return nil, nil
	}
	c := &checker{pass: pass}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					c.walkBlock(fn.Body.List, nil)
				}
				return false
			case *ast.FuncLit:
				// Reached only for literals outside any function body
				// (package-level var initializers); literals inside
				// functions are walked in place with the lock state.
				c.walkBlock(fn.Body.List, nil)
				return false
			}
			return true
		})
	}
	return nil, nil
}

type checker struct {
	pass *analysis.Pass
}

// walkBlock processes a statement list in order, tracking the set of
// held mutexes (keyed by the canonical receiver expression, e.g.
// "j.mu").
func (c *checker) walkBlock(list []ast.Stmt, held []string) {
	held = append([]string(nil), held...) // branch-local copy
	for _, stmt := range list {
		held = c.walkStmt(stmt, held)
	}
}

// walkStmt handles one statement and returns the updated held set.
func (c *checker) walkStmt(stmt ast.Stmt, held []string) []string {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if recv, op, ok := c.mutexOp(s.X); ok {
			switch op {
			case "Lock", "RLock":
				return append(held, recv)
			case "Unlock", "RUnlock":
				return remove(held, recv)
			}
		}
		c.scan(s.X, held)
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the region open to function end; a
		// deferred callback itself runs at return, when locks taken
		// here are (usually) released, so a literal body starts with no
		// lock held. Its argument expressions are evaluated here.
		if _, _, ok := c.mutexOp(s.Call); !ok {
			c.scanExprs(s.Call.Args, held)
			c.walkLit(s.Call.Fun)
		}
	case *ast.GoStmt:
		// The goroutine runs concurrently; its body is not "while
		// holding" for this path either.
		c.scanExprs(s.Call.Args, held)
		c.walkLit(s.Call.Fun)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					c.scanExprs(vs.Values, held)
				}
			}
		}
	case *ast.SendStmt:
		c.flagSend(s, held)
		c.scan(s.Chan, held)
		c.scan(s.Value, held)
	case *ast.AssignStmt:
		c.scanExprs(s.Rhs, held)
		c.scanExprs(s.Lhs, held)
	case *ast.ReturnStmt:
		c.scanExprs(s.Results, held)
	case *ast.IfStmt:
		if s.Init != nil {
			held = c.walkStmt(s.Init, held)
		}
		c.scan(s.Cond, held)
		c.walkBlock(s.Body.List, held)
		if s.Else != nil {
			c.walkStmt(s.Else, held)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			held = c.walkStmt(s.Init, held)
		}
		c.scan(s.Cond, held)
		c.walkBlock(s.Body.List, held)
	case *ast.RangeStmt:
		c.scan(s.X, held)
		c.walkBlock(s.Body.List, held)
	case *ast.BlockStmt:
		c.walkBlock(s.List, held)
	case *ast.LabeledStmt:
		return c.walkStmt(s.Stmt, held)
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = c.walkStmt(s.Init, held)
		}
		c.scan(s.Tag, held)
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				c.scanExprs(cc.List, held)
				c.walkBlock(cc.Body, held)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				c.walkBlock(cc.Body, held)
			}
		}
	case *ast.SelectStmt:
		hasDefault := false
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		for _, cl := range s.Body.List {
			cc, ok := cl.(*ast.CommClause)
			if !ok {
				continue
			}
			if send, ok := cc.Comm.(*ast.SendStmt); ok && !hasDefault {
				// A select without default blocks on its sends.
				c.flagSend(send, held)
			}
			c.walkBlock(cc.Body, held)
		}
	}
	return held
}

// scan inspects an expression for blocking constructs under the lock:
// dynamic calls and function literals invoked or defined here. Literals
// are walked whatever the region, since one defined with no lock held may
// take a lock inside itself.
func (c *checker) scan(e ast.Expr, held []string) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A literal defined while the lock is held may run while it
			// is held (immediate invocation, synchronous visitor):
			// analyze its body with the current region. Deferred and
			// goroutine cases are filtered by the callers.
			c.walkBlock(n.Body.List, held)
			return false
		case *ast.CallExpr:
			c.flagDynamicCall(n, held)
		}
		return true
	})
}

// walkLit walks the body of a deferred or launched function literal as a
// region of its own: the caller's locks do not cover it, its own do.
func (c *checker) walkLit(fun ast.Expr) {
	if lit, ok := fun.(*ast.FuncLit); ok {
		c.walkBlock(lit.Body.List, nil)
	}
}

func (c *checker) scanExprs(es []ast.Expr, held []string) {
	for _, e := range es {
		c.scan(e, held)
	}
}

func (c *checker) flagSend(s *ast.SendStmt, held []string) {
	if len(held) > 0 {
		c.pass.Reportf(s.Arrow,
			"channel send while holding %s: a slow receiver stalls every path through the lock; copy, unlock, then send",
			held[len(held)-1])
	}
}

// flagDynamicCall reports calls through function-typed variables,
// fields or parameters made while a lock is held.
func (c *checker) flagDynamicCall(call *ast.CallExpr, held []string) {
	if len(held) == 0 {
		return
	}
	fun := ast.Unparen(call.Fun)
	// A conversion or a call of a named function/method is fine; only a
	// value of function type held in a var/field is a subscriber
	// callback.
	var obj types.Object
	switch f := fun.(type) {
	case *ast.Ident:
		obj = c.pass.TypesInfo.Uses[f]
	case *ast.SelectorExpr:
		if sel, ok := c.pass.TypesInfo.Selections[f]; ok && sel.Kind() != types.FieldVal {
			return // method call
		}
		obj = c.pass.TypesInfo.Uses[f.Sel]
	default:
		return
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return
	}
	if _, isSig := v.Type().Underlying().(*types.Signature); !isSig {
		return
	}
	c.pass.Reportf(call.Pos(),
		"callback %s invoked while holding %s: a re-entrant or slow callback deadlocks the lock; snapshot under the lock, call after unlocking",
		v.Name(), held[len(held)-1])
}

// mutexOp matches expr as a call recv.(Lock|RLock|Unlock|RUnlock) on a
// sync.Mutex or sync.RWMutex and returns the canonical receiver text.
func (c *checker) mutexOp(e ast.Expr) (recv, op string, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	m, isFunc := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !isFunc || m.Pkg() == nil || m.Pkg().Path() != "sync" {
		return "", "", false
	}
	switch m.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return types.ExprString(sel.X), m.Name(), true
	}
	return "", "", false
}

func remove(held []string, recv string) []string {
	out := held[:0]
	for _, h := range held {
		if h != recv {
			out = append(out, h)
		}
	}
	return out
}

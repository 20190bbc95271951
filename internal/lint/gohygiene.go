package lint

// gohygiene: goroutine and lock discipline in the concurrency substrate.
//
// Three rules, all aimed at the goroutine lifecycle bugs that race
// detectors only catch when the schedule cooperates:
//
//  1. Every `go` launch must have a visible join or lifecycle: a
//     WaitGroup.Add before the launch, a WaitGroup.Done inside the spawned
//     literal, a channel-range worker body (terminates on close), or an
//     enclosing method whose type provides Stop/Wait/Close/Shutdown/Join.
//     Fire-and-forget goroutines outlive Drain and corrupt the next run's
//     accounting.
//  2. WaitGroup.Add inside the spawned goroutine races the parent's Wait —
//     the classic TOCTOU that makes Drain return early once in a thousand
//     runs.
//  3. Lock-carrying values (sync.Mutex & friends, sync/atomic value types)
//     must not cross function boundaries by value: value receivers, value
//     parameters, and by-value returns all copy the lock. go vet's
//     copylocks catches assignments; this covers the signature surface.

import (
	"go/ast"
	"go/types"
)

// GoHygiene flags unpaired goroutine launches, WaitGroup.Add inside
// spawned goroutines, and lock-carrying values in function signatures.
var GoHygiene = &Analyzer{
	Name: "gohygiene",
	Doc:  "goroutines without a join/lifecycle, WaitGroup.Add inside goroutines, locks passed by value",
	Run:  runGoHygiene,
}

// lifecycleMethods are the method names that count as a goroutine owner's
// teardown surface.
var lifecycleMethods = map[string]bool{
	"Stop": true, "Wait": true, "Close": true, "Shutdown": true, "Join": true,
}

func runGoHygiene(p *Pass) {
	// Method sets by receiver base type name, for the lifecycle rule.
	methods := make(map[string]map[string]bool)
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil {
				continue
			}
			recv := recvBaseName(fn)
			if recv == "" {
				continue
			}
			if methods[recv] == nil {
				methods[recv] = make(map[string]bool)
			}
			methods[recv][fn.Name.Name] = true
		}
	}

	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			checkSignatureLocks(p, fn)
			if fn.Body == nil {
				continue
			}
			checkGoStmts(p, fn, methods)
		}
	}
}

func recvBaseName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok {
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// isWaitGroupMethod reports whether the call invokes the named method on a
// sync.WaitGroup (by value or pointer).
func isWaitGroupMethod(info *types.Info, call *ast.CallExpr, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	s, ok := info.Selections[sel]
	if !ok {
		return false
	}
	recv := s.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	return namedPath(recv) == "sync.WaitGroup"
}

func checkGoStmts(p *Pass, fn *ast.FuncDecl, methods map[string]map[string]bool) {
	info := p.Pkg.Info

	// Lexical positions of WaitGroup.Add calls in this function (outside
	// spawned literals they license a following `go`).
	var addPositions []int
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isWaitGroupMethod(info, call, "Add") {
			addPositions = append(addPositions, int(call.Pos()))
		}
		return true
	})

	hasLifecycle := false
	if recv := recvBaseName(fn); recv != "" {
		for m := range lifecycleMethods {
			if methods[recv][m] {
				hasLifecycle = true
				break
			}
		}
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		// Rule 2: WaitGroup.Add inside the spawned goroutine.
		if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok && isWaitGroupMethod(info, call, "Add") {
					p.Reportf(call.Pos(), "WaitGroup.Add inside the spawned goroutine races the parent's Wait; Add before the go statement")
				}
				return true
			})
		}
		// Rule 1: visible join or lifecycle.
		if goStmtIsPaired(info, g, addPositions, hasLifecycle) {
			return true
		}
		p.Reportf(g.Pos(), "goroutine in %s has no visible join: pair it with WaitGroup.Add/Done, a channel-range worker body, or a Stop/Wait/Close method on the owning type", fn.Name.Name)
		return true
	})
}

func goStmtIsPaired(info *types.Info, g *ast.GoStmt, addPositions []int, hasLifecycle bool) bool {
	if hasLifecycle {
		return true
	}
	for _, pos := range addPositions {
		if pos < int(g.Pos()) {
			return true
		}
	}
	lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
	if !ok {
		return false
	}
	done := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isWaitGroupMethod(info, call, "Done") {
			done = true
		}
		return !done
	})
	if done {
		return true
	}
	// Channel-range worker: the literal's top level is a `for range ch`
	// loop, so the goroutine exits when the channel closes.
	for _, stmt := range lit.Body.List {
		rng, ok := stmt.(*ast.RangeStmt)
		if !ok {
			continue
		}
		if tv, ok := info.Types[rng.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				return true
			}
		}
	}
	return false
}

// checkSignatureLocks flags lock-carrying values crossing the function
// boundary by value.
func checkSignatureLocks(p *Pass, fn *ast.FuncDecl) {
	info := p.Pkg.Info
	checkField := func(field *ast.Field, what string) {
		tv, ok := info.Types[field.Type]
		if !ok {
			return
		}
		if _, isPtr := tv.Type.Underlying().(*types.Pointer); isPtr {
			return
		}
		if path := containsLock(tv.Type); path != "" {
			p.Reportf(field.Pos(), "%s of %s is passed by value but carries %s; use a pointer", what, fn.Name.Name, path)
		}
	}
	if fn.Recv != nil {
		for _, field := range fn.Recv.List {
			checkField(field, "receiver")
		}
	}
	if fn.Type.Params != nil {
		for _, field := range fn.Type.Params.List {
			checkField(field, "parameter")
		}
	}
	if fn.Type.Results != nil {
		for _, field := range fn.Type.Results.List {
			checkField(field, "result")
		}
	}
}

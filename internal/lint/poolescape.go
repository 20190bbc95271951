package lint

// poolescape: pooled buffers have exactly one owner between Get and Put.
//
// The scratch pools in internal/parallel are what keep the steady-state
// cycle allocation-free, and their contract (parallel/pool.go) is strict:
// whoever Gets a buffer owns it until Put, and Put surrenders it. PR 7's
// fleet-scale work hit the failure mode this analyzer now rejects at review
// time — a borrowed buffer aliased into longer-lived state, so two owners
// raced on one backing array.
//
// Tracked values come from the pool Get functions (parallel.GetF64 & co.,
// SlicePool.Get), from module functions whose bottom-up summary says they
// return a still-borrowed buffer (poolFact.returnsPooled — the documented
// "caller must release" idiom, e.g. the KCF tracker's FFT helpers), and
// from borrowed-view sources (scratch-struct accessors and arena-slot
// addresses) that hand out aliases of state the callee still owns.
// Violations:
//
//   - storing a pooled/borrowed buffer into a struct field reachable from
//     a parameter or into a package-level variable (it outlives the borrow)
//   - sending one on a channel (ownership cannot transfer across
//     goroutines)
//   - capturing one in a go-statement closure (closures handed to
//     parallel.For are fine: For returns only after every closure ran)
//   - passing one to a module function that stores its parameter
//     (poolFact.escapesParam)
//   - using or re-releasing a buffer after its Put in straight-line code
//   - returning a buffer past its own deferred Put
//
// Returning a still-borrowed buffer with no Put is legal — that is the
// ownership-transfer idiom — and becomes the function's returnsPooled
// summary so its callers are tracked instead. The checks for use-after-Put
// and double-Put are deliberately scoped to the block the Put appears in:
// a conditional early release (`if err { Put(b); return }`) does not poison
// the success path. Dynamic calls and calls outside the loaded set are
// assumed benign; stores into purely local structs are not tracked.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolEscape flags pool-ownership violations: escaping, use-after-put,
// double-put, and returns past a deferred put.
var PoolEscape = &Analyzer{
	Name:         "poolescape",
	Doc:          "pooled scratch buffers escaping their owner (field/global stores, channel sends, goroutine captures, use after Put)",
	NeedsProgram: true,
	Run:          runPoolEscape,
}

// poolGets maps qualified names of buffer-lending functions to the display
// name used in findings. The result of any of these is an owned borrow.
var poolGets = map[string]string{
	"sov/internal/parallel.GetF64":        "parallel.GetF64",
	"sov/internal/parallel.GetC128":       "parallel.GetC128",
	"sov/internal/parallel.GetI32":        "parallel.GetI32",
	"sov/internal/parallel.GetU64":        "parallel.GetU64",
	"sov/internal/parallel.GetIntsZeroed": "parallel.GetIntsZeroed",
	"sov/internal/parallel.SlicePool.Get": "SlicePool.Get",
}

// poolPuts maps qualified names of release functions to their display name.
// The released buffer is the first argument.
var poolPuts = map[string]string{
	"sov/internal/parallel.PutF64":        "parallel.PutF64",
	"sov/internal/parallel.PutC128":       "parallel.PutC128",
	"sov/internal/parallel.PutI32":        "parallel.PutI32",
	"sov/internal/parallel.PutU64":        "parallel.PutU64",
	"sov/internal/parallel.PutInts":       "parallel.PutInts",
	"sov/internal/parallel.SlicePool.Put": "SlicePool.Put",
}

// borrowedSources lend a view of state the callee still owns: the caller
// may read through it but must not let it outlive the call scope. No Put
// is expected.
var borrowedSources = map[string]string{
	"sov/internal/vision.StereoScratch.costBand": "StereoScratch.costBand",
}

// arenaElems are slice-element types whose address (&slice[i]) is an
// arena-slot borrow: fleet keeps riders in a flat arena and hands out slot
// pointers that must not outlive the dispatch step.
var arenaElems = map[string]string{
	"sov/internal/fleet.rider": "fleet rider arena",
}

func runPoolEscape(p *Pass) {
	for _, pf := range p.Prog.funcs {
		if pf.Pkg == p.Pkg && pf.Decl.Body != nil {
			poolWalk(p.Prog, pf, p)
		}
	}
}

// pval is the pool state of one variable.
type pval struct {
	origin   string // which Get/source lent it; "" = not tracked
	borrowed bool   // view-only borrow: no Put in its lifecycle
}

type release struct {
	pos token.Pos // the Put
	end token.Pos // End() of the block the Put statement appears in
}

// poolWalk runs the ownership walker over pf's body and returns its
// summary fact; with a non-nil pass it reports violations.
func poolWalk(prog *Program, pf *ProgFunc, pass *Pass) poolFact {
	w := &poolWalker{
		prog:     prog,
		pf:       pf,
		info:     pf.Pkg.Info,
		pass:     pass,
		state:    make(map[*types.Var]pval),
		released: make(map[*types.Var]release),
		deferred: make(map[*types.Var]token.Pos),
		pidx:     make(map[*types.Var]int),
	}
	sig := pf.Obj.Type().(*types.Signature)
	idx := 0
	if recv := sig.Recv(); recv != nil {
		w.pidx[recv] = idx
		idx++
	}
	for i := 0; i < sig.Params().Len(); i++ {
		w.pidx[sig.Params().At(i)] = idx
		idx++
	}
	w.walkStmt(pf.Decl.Body, pf.Decl.Body.End())
	return w.fact
}

type poolWalker struct {
	prog     *Program
	pf       *ProgFunc
	info     *types.Info
	pass     *Pass
	state    map[*types.Var]pval
	released map[*types.Var]release
	deferred map[*types.Var]token.Pos
	pidx     map[*types.Var]int
	fact     poolFact
}

func (w *poolWalker) reportf(pos token.Pos, format string, args ...any) {
	if w.pass != nil {
		w.pass.Reportf(pos, format, args...)
	}
}

func (w *poolWalker) varOf(id *ast.Ident) *types.Var {
	if v, ok := w.info.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := w.info.Uses[id].(*types.Var)
	return v
}

// paramBit returns (bit, true) when v is a parameter of the function under
// analysis (receiver = bit 0 for methods).
func (w *poolWalker) paramBit(v *types.Var) (uint64, bool) {
	if i, ok := w.pidx[v]; ok && i < 64 {
		return 1 << i, true
	}
	return 0, false
}

// sourceOf classifies an expression as a borrow source: a pool Get, a
// summarized returns-pooled module call, a borrowed-view accessor, or an
// arena-slot address. Returns the zero pval for everything else.
func (w *poolWalker) sourceOf(e ast.Expr) pval {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.CallExpr:
		fn, _ := calleeObject(w.info, x).(*types.Func)
		if fn == nil {
			return pval{}
		}
		qn := qualifiedName(fn.Origin())
		if name, ok := poolGets[qn]; ok {
			return pval{origin: name}
		}
		if name, ok := borrowedSources[qn]; ok {
			return pval{origin: name, borrowed: true}
		}
		if callee := w.prog.FuncOf(fn); callee != nil && callee.pool.returnsPooled {
			return pval{origin: callee.pool.poolNote + " via " + callee.Name()}
		}
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			if ix, ok := ast.Unparen(x.X).(*ast.IndexExpr); ok {
				if tv, ok := w.info.Types[ix.X]; ok {
					if sl, ok := tv.Type.Underlying().(*types.Slice); ok {
						if name, ok := arenaElems[namedPath(sl.Elem())]; ok {
							return pval{origin: name, borrowed: true}
						}
					}
				}
			}
		}
	case *ast.Ident:
		// Aliasing: u := v copies the borrow state (two names, one owner —
		// the checks treat either name touching the buffer the same way).
		if v := w.varOf(x); v != nil {
			return w.state[v]
		}
	}
	return pval{}
}

// trackedIdent returns the variable and state when e is (after unwrapping
// parens) an identifier holding a tracked buffer.
func (w *poolWalker) trackedIdent(e ast.Expr) (*types.Var, pval) {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil, pval{}
	}
	v := w.varOf(id)
	if v == nil {
		return nil, pval{}
	}
	return v, w.state[v]
}

// checkUse reports a straight-line use of v after its Put. The release is
// scoped to the block the Put appeared in, so conditional early releases
// do not poison later code.
func (w *poolWalker) checkUse(v *types.Var, pos token.Pos) {
	rel, ok := w.released[v]
	if !ok || pos <= rel.pos || pos >= rel.end {
		return
	}
	delete(w.released, v) // one finding per release, not one per use
	w.reportf(pos, "pooled buffer %s is used after its release at %s; Put surrenders ownership",
		v.Name(), posLabel(w.pf.Pkg, rel.pos))
}

// scanUses walks an expression reporting use-after-put for every tracked
// identifier read inside it.
func (w *poolWalker) scanUses(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v := w.varOf(id); v != nil {
				w.checkUse(v, id.Pos())
			}
		}
		return true
	})
}

// scanExpr is the one entry point for an expression in evaluation position:
// it reports use-after-put on identifiers, runs handleCall on every call in
// the expression (including calls buried in conditions, returns, and nested
// arguments), and walks function-literal bodies through the statement
// walker with the shared state (closures handed to parallel.For operate on
// the caller's borrows legitimately).
func (w *poolWalker) scanExpr(e ast.Expr, blockEnd token.Pos) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			w.walkStmt(x.Body, x.Body.End())
			return false
		case *ast.CallExpr:
			// Evaluation order: arguments first, then the call itself — a
			// Put's own argument is a legal last use, not use-after-release.
			w.scanExpr(x.Fun, blockEnd)
			for _, a := range x.Args {
				w.scanExpr(a, blockEnd)
			}
			w.handleCall(x, blockEnd, false)
			return false
		case *ast.Ident:
			if v := w.varOf(x); v != nil {
				w.checkUse(v, x.Pos())
			}
		}
		return true
	})
}

// handleCall processes one call expression in evaluation position:
// releases, summarized escapes, and spawned work. blockEnd is the End() of
// the block the enclosing statement belongs to.
func (w *poolWalker) handleCall(call *ast.CallExpr, blockEnd token.Pos, deferredCall bool) {
	fn, _ := calleeObject(w.info, call).(*types.Func)
	if fn == nil {
		w.scanUses(call)
		return
	}
	qn := qualifiedName(fn.Origin())

	if name, ok := poolPuts[qn]; ok && len(call.Args) > 0 {
		v, st := w.trackedIdent(call.Args[0])
		if v == nil {
			return
		}
		if bit, isParam := w.paramBit(v); isParam {
			w.fact.putsParam |= bit
		}
		if deferredCall {
			w.deferred[v] = call.Pos()
			return
		}
		if rel, ok := w.released[v]; ok && call.Pos() > rel.pos && call.Pos() < rel.end {
			w.reportf(call.Pos(), "pooled buffer %s is released twice (first %s at %s); a double Put corrupts the pool free list",
				v.Name(), name, posLabel(w.pf.Pkg, rel.pos))
			return
		}
		_, isParam := w.pidx[v]
		if st.origin != "" || isParam {
			w.released[v] = release{pos: call.Pos(), end: blockEnd}
		}
		return
	}

	// Module-internal callee: apply its pool summary to tracked arguments.
	if callee := w.prog.FuncOf(fn); callee != nil && callee.Decl.Body != nil {
		args := w.alignedArgs(call, fn)
		nidx := len(args)
		for i, a := range args {
			if a == nil {
				continue
			}
			v, st := w.trackedIdent(a)
			if v == nil {
				continue
			}
			w.checkUse(v, a.Pos())
			bit := uint64(1) << min64(i, nidx-1)
			if callee.pool.escapesParam&bit != 0 {
				if st.origin != "" {
					w.reportf(a.Pos(), "pooled buffer %s (%s) is passed to %s, which stores it (%s); the callee would outlive the borrow — pass a copy or transfer ownership explicitly",
						v.Name(), st.origin, callee.Name(), callee.pool.escapeNote)
				}
				// A parameter handed to an escaping callee escapes from here
				// too — the summary is transitive.
				if pbit, isParam := w.paramBit(v); isParam && st.origin == "" {
					w.fact.escapesParam |= pbit
					if w.fact.escapeNote == "" {
						w.fact.escapeNote = "passed to " + callee.Name() + " (" + callee.pool.escapeNote + ")"
					}
				}
			}
			if callee.pool.putsParam&bit != 0 && st.origin != "" && !st.borrowed {
				w.released[v] = release{pos: call.Pos(), end: blockEnd}
			}
		}
		return
	}
	w.scanUses(call)
}

// alignedArgs lines call arguments up with the callee's parameter indexing
// (receiver first for methods).
func (w *poolWalker) alignedArgs(call *ast.CallExpr, fn *types.Func) []ast.Expr {
	var args []ast.Expr
	sig := fn.Origin().Type().(*types.Signature)
	if sig.Recv() != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if s, ok := w.info.Selections[sel]; ok && s.Kind() == types.MethodVal {
				args = append(args, sel.X)
			}
		}
	}
	return append(args, call.Args...)
}

func min64(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// assign processes one lvalue ← rvalue pair.
func (w *poolWalker) assign(lhs, rhs ast.Expr, blockEnd token.Pos) {
	st := w.sourceOf(rhs)
	switch x := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if x.Name == "_" {
			return
		}
		v := w.varOf(x)
		if v == nil {
			return
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			// A bare store into a package-level variable escapes the borrow.
			if st.origin != "" {
				name := "buffer"
				if rv, _ := w.trackedIdent(rhs); rv != nil {
					name = rv.Name()
				}
				w.reportf(rhs.Pos(), "pooled buffer %s (%s) is stored into %s, which outlives the borrow; the pool contract is one owner between Get and Put",
					name, st.origin, w.storeDesc(lhs))
			}
			if pv, pst := w.trackedIdent(rhs); pv != nil && pst.origin == "" {
				if bit, isParam := w.paramBit(pv); isParam {
					w.fact.escapesParam |= bit
					if w.fact.escapeNote == "" {
						w.fact.escapeNote = "stored into " + w.storeDesc(lhs)
					}
				}
			}
			return
		}
		w.state[v] = st // strong update: a fresh value replaces the borrow
		delete(w.released, v)
		delete(w.deferred, v)
	default:
		if st.origin == "" {
			// Not a tracked buffer; still check whether a tracked PARAM is
			// being parked in escaping state for the summary.
			if v, pst := w.trackedIdent(rhs); v != nil && pst.origin == "" {
				if bit, isParam := w.paramBit(v); isParam && w.escapingStore(lhs) {
					w.fact.escapesParam |= bit
					if w.fact.escapeNote == "" {
						w.fact.escapeNote = "stored into " + w.storeDesc(lhs)
					}
				}
			}
			return
		}
		if w.escapingStore(lhs) {
			name := "buffer"
			if v, _ := w.trackedIdent(rhs); v != nil {
				name = v.Name()
			}
			w.reportf(rhs.Pos(), "pooled buffer %s (%s) is stored into %s, which outlives the borrow; the pool contract is one owner between Get and Put",
				name, st.origin, w.storeDesc(lhs))
		}
	}
}

// escapingStore reports whether the lvalue outlives the function's frame:
// a field/element reachable from a parameter or receiver, or a
// package-level variable. Stores into purely local structs are not escapes
// this analyzer sees (documented imprecision).
func (w *poolWalker) escapingStore(lhs ast.Expr) bool {
	base := lhs
	for {
		switch x := base.(type) {
		case *ast.ParenExpr:
			base = x.X
		case *ast.SelectorExpr:
			base = x.X
		case *ast.IndexExpr:
			base = x.X
		case *ast.StarExpr:
			base = x.X
		case *ast.Ident:
			v := w.varOf(x)
			if v == nil {
				return false
			}
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return true // package-level variable
			}
			_, isParam := w.pidx[v]
			return isParam && base != lhs // a bare `param = x` is not a store-through
		default:
			return false
		}
	}
}

// storeDesc renders the store target for the finding message.
func (w *poolWalker) storeDesc(lhs ast.Expr) string {
	lhs = ast.Unparen(lhs)
	for { // peel element/deref wrappers: r.buf[i] describes as field r.buf
		switch x := lhs.(type) {
		case *ast.IndexExpr:
			lhs = ast.Unparen(x.X)
			continue
		case *ast.StarExpr:
			lhs = ast.Unparen(x.X)
			continue
		}
		break
	}
	if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
		if base, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
			return "field " + base.Name + "." + sel.Sel.Name
		}
		return "field " + sel.Sel.Name
	}
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		return "package-level var " + id.Name
	}
	return "longer-lived state"
}

// goCaptures reports pooled values crossing into a spawned goroutine:
// closure captures and direct arguments.
func (w *poolWalker) goCaptures(g *ast.GoStmt) {
	check := func(v *types.Var, pos token.Pos) {
		st := w.state[v]
		if st.origin != "" {
			w.reportf(pos, "pooled buffer %s (%s) is captured by a spawned goroutine; the pool contract is single-owner — pass a copy or release first",
				v.Name(), st.origin)
		}
		if bit, isParam := w.paramBit(v); isParam {
			w.fact.escapesParam |= bit
			if w.fact.escapeNote == "" {
				w.fact.escapeNote = "captured by a spawned goroutine"
			}
		}
	}
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if v, ok := w.info.Uses[id].(*types.Var); ok {
					if _, tracked := w.state[v]; tracked {
						check(v, id.Pos())
					} else if _, isParam := w.pidx[v]; isParam {
						check(v, id.Pos())
					}
				}
			}
			return true
		})
	}
	for _, a := range g.Call.Args {
		if v, _ := w.trackedIdent(a); v != nil {
			check(v, a.Pos())
		}
	}
}

func (w *poolWalker) walkStmt(s ast.Stmt, blockEnd token.Pos) {
	switch x := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range x.List {
			w.walkStmt(st, x.End())
		}
	case *ast.ExprStmt:
		w.scanExpr(x.X, blockEnd)
	case *ast.AssignStmt:
		for _, r := range x.Rhs {
			w.scanExpr(r, blockEnd)
		}
		if len(x.Lhs) == len(x.Rhs) {
			for i := range x.Lhs {
				w.assign(x.Lhs[i], x.Rhs[i], blockEnd)
			}
		} else if len(x.Rhs) == 1 {
			for _, l := range x.Lhs {
				w.assign(l, x.Rhs[0], blockEnd)
			}
		}
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for i, n := range vs.Names {
						if i < len(vs.Values) {
							w.scanExpr(vs.Values[i], blockEnd)
							w.assign(n, vs.Values[i], blockEnd)
						}
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			w.scanExpr(r, blockEnd)
			v, st := w.trackedIdent(r)
			if v == nil {
				// A direct `return GetF64(n)` / `return pooledHelper()` is
				// the ownership-transfer idiom with no intermediate local.
				if rst := w.sourceOf(r); rst.origin != "" && !rst.borrowed && !w.fact.returnsPooled {
					w.fact.returnsPooled = true
					w.fact.poolNote = rst.origin
				}
				continue
			}
			if putPos, ok := w.deferred[v]; ok {
				w.reportf(r.Pos(), "pooled buffer %s is returned past its deferred release at %s; the caller receives a buffer the pool already owns",
					v.Name(), posLabel(w.pf.Pkg, putPos))
				continue
			}
			if st.origin != "" && !st.borrowed && !w.fact.returnsPooled {
				w.fact.returnsPooled = true
				w.fact.poolNote = st.origin
			}
		}
	case *ast.SendStmt:
		w.scanExpr(x.Chan, blockEnd)
		w.scanExpr(x.Value, blockEnd)
		if v, st := w.trackedIdent(x.Value); v != nil {
			if st.origin != "" {
				w.reportf(x.Value.Pos(), "pooled buffer %s (%s) is sent on a channel; ownership cannot cross goroutines — release it and send a copy or an index",
					v.Name(), st.origin)
			}
			if bit, isParam := w.paramBit(v); isParam {
				w.fact.escapesParam |= bit
				if w.fact.escapeNote == "" {
					w.fact.escapeNote = "sent on a channel"
				}
			}
		}
	case *ast.GoStmt:
		w.goCaptures(x)
	case *ast.DeferStmt:
		w.handleCall(x.Call, blockEnd, true)
		for _, a := range x.Call.Args {
			w.scanExpr(a, blockEnd) // defer args evaluate immediately
		}
	case *ast.IfStmt:
		w.walkStmt(x.Init, blockEnd)
		w.scanExpr(x.Cond, blockEnd)
		w.walkStmt(x.Body, blockEnd)
		w.walkStmt(x.Else, blockEnd)
	case *ast.ForStmt:
		w.walkStmt(x.Init, blockEnd)
		w.scanExpr(x.Cond, blockEnd)
		w.walkStmt(x.Body, blockEnd)
		w.walkStmt(x.Post, blockEnd)
	case *ast.RangeStmt:
		w.scanExpr(x.X, blockEnd)
		w.walkStmt(x.Body, blockEnd)
	case *ast.SwitchStmt:
		w.walkStmt(x.Init, blockEnd)
		w.scanExpr(x.Tag, blockEnd)
		w.walkStmt(x.Body, blockEnd)
	case *ast.TypeSwitchStmt:
		w.walkStmt(x.Init, blockEnd)
		w.walkStmt(x.Assign, blockEnd)
		w.walkStmt(x.Body, blockEnd)
	case *ast.CaseClause:
		for _, e := range x.List {
			w.scanExpr(e, blockEnd)
		}
		for _, st := range x.Body {
			w.walkStmt(st, blockEnd)
		}
	case *ast.SelectStmt:
		w.walkStmt(x.Body, blockEnd)
	case *ast.CommClause:
		w.walkStmt(x.Comm, blockEnd)
		for _, st := range x.Body {
			w.walkStmt(st, blockEnd)
		}
	case *ast.LabeledStmt:
		w.walkStmt(x.Stmt, blockEnd)
	}
}

package lint

// detflow: host-class values must not reach virtual-class outputs.
//
// detnow and detrand police the *reads*: where the wall clock or an
// unseeded RNG may be consulted at all. detflow polices the *flows*: a
// host-class value (wall-clock time, CPU counts, environment) that is read
// legitimately — say inside a //sovlint:wallclock diagnostics function —
// must still never launder its way into a virtual-class output: a trace
// record, a fleet report field, or an RNG seed. One NumCPU folded into a
// seed and every calibrated figure silently depends on the machine that
// produced it.
//
// The analyzer is a flow-sensitive, field-coarse taint walker over each
// function body, made interprocedural by the bottom-up summaries in
// summary.go: a function that returns a host-derived value taints its
// callers' locals (taintFact.returnsHost), one that passes a parameter to a
// sink taints flags its callers' arguments (taintFact.paramSink), and
// parameter-to-return flows (taintFact.paramReturn) carry taint through
// helper functions, so laundering through locals, struct fields, or
// helpers is caught. Calls outside the loaded set propagate the join of
// their argument taints to their results — an unknown function cannot
// launder. Two walker passes per function pick up loop-carried taint.
//
// Known imprecision, chosen for zero-config operation: field assignments
// taint the whole root variable (no per-field tracking), package-level
// variables are not tracked across functions, and branch conditions do not
// taint the values assigned under them (data flow only, not control flow).

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DetFlow flags host-class values (wall clock, CPU counts, env) flowing
// into virtual-class sinks (traces, reports, RNG seeds).
var DetFlow = &Analyzer{
	Name:         "detflow",
	Doc:          "host-class values (time, NumCPU, env) flowing into virtual-class sinks (traces, reports, RNG seeds)",
	NeedsProgram: true,
	Run:          runDetFlow,
}

// hostSources maps qualified function names to the host-class value they
// return. Any call to one of these produces a tainted result — even inside
// //sovlint:wallclock functions, where reading is sanctioned but the value
// is still host-class. Module-internal functions annotated
// //sovlint:wallclock are treated as sources too: the annotation declares
// their results host-class by contract (see evalSummarized).
var hostSources = map[string]string{
	"time.Now":             "time.Now",
	"time.Since":           "time.Since",
	"time.Until":           "time.Until",
	"runtime.NumCPU":       "runtime.NumCPU",
	"runtime.GOMAXPROCS":   "runtime.GOMAXPROCS",
	"runtime.NumGoroutine": "runtime.NumGoroutine",
	"os.Getenv":            "os.Getenv",
	"os.LookupEnv":         "os.LookupEnv",
	"os.Environ":           "os.Environ",
	"os.Getpid":            "os.Getpid",
	"os.Hostname":          "os.Hostname",
}

// hostSinks maps qualified function names to virtual-class outputs: any
// argument reaching one of these must be host-independent. Receivers do not
// count as sink inputs (the trace writer itself is not the data).
var hostSinks = map[string]string{
	"math/rand.NewSource":                       "math/rand.NewSource (RNG seed)",
	"math/rand.Seed":                            "math/rand.Seed (RNG seed)",
	"math/rand.Rand.Seed":                       "rand.Rand.Seed (RNG seed)",
	"sov/internal/sim.NewRNG":                   "sim.NewRNG (simulation RNG seed)",
	"sov/internal/core.Tracer.Record":           "the cycle trace (core.Tracer.Record)",
	"sov/internal/obs.SpanWriter.Span":          "the span trace (obs.SpanWriter.Span)",
	"sov/internal/obs.FlightRecorder.Record":    "the flight recorder (obs.FlightRecorder.Record)",
	"sov/internal/fleet.traceWriter.intField":   "the fleet trace (traceWriter.intField)",
	"sov/internal/fleet.traceWriter.floatField": "the fleet trace (traceWriter.floatField)",
}

func runDetFlow(p *Pass) {
	for _, pf := range p.Prog.funcs {
		if pf.Pkg == p.Pkg && pf.Decl.Body != nil {
			taintWalk(p.Prog, pf, p)
		}
	}
}

// tval is the taint of one value: a host-class origin (empty = clean) plus
// the set of enclosing-function parameters whose values flow into it.
type tval struct {
	host   string
	params uint64
}

func (t tval) empty() bool { return t.host == "" && t.params == 0 }

func joinT(a, b tval) tval {
	if a.host == "" {
		a.host = b.host
	}
	a.params |= b.params
	return a
}

// taintWalk runs the taint walker over pf's body and returns its summary
// fact. With a non-nil pass it also reports host-to-sink flows (the second
// walker pass does the reporting, so loop-carried taint is visible). With a
// nil pass it is the summary builder called from computeSummaries.
func taintWalk(prog *Program, pf *ProgFunc, pass *Pass) taintFact {
	w := &taintWalker{
		prog:  prog,
		pf:    pf,
		info:  pf.Pkg.Info,
		state: make(map[*types.Var]tval),
		pidx:  make(map[*types.Var]int),
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
	for v, i := range w.pidx {
		if i < 64 {
			w.state[v] = tval{params: 1 << i}
		}
	}
	w.walkStmt(pf.Decl.Body) // pass 1: settle loop-carried taint
	w.pass = pass
	w.walkStmt(pf.Decl.Body) // pass 2: collect the fact, report flows
	return w.fact
}

type taintWalker struct {
	prog  *Program
	pf    *ProgFunc
	info  *types.Info
	state map[*types.Var]tval
	pidx  map[*types.Var]int
	pass  *Pass // nil during pass 1 and in summary mode
	fact  taintFact
}

func (w *taintWalker) report(pos token.Pos, origin, sink string) {
	if w.pass != nil {
		w.pass.Reportf(pos,
			"host-derived value (%s) reaches %s; virtual-class outputs must not depend on host state — derive it from sim config or the run seed, or drop the field",
			origin, sink)
	}
}

// sinkHit records that taint reached the named sink: host taint is a
// finding at the call site; parameter taint becomes a paramSink summary bit
// so callers are checked instead.
func (w *taintWalker) sinkHit(pos token.Pos, t tval, sink string) {
	if t.host != "" {
		w.report(pos, t.host, sink)
	}
	if t.params != 0 {
		w.fact.paramSink |= t.params
		if w.fact.sinkNote == "" {
			w.fact.sinkNote = sink
		}
	}
}

// varOf resolves an identifier to its variable object (definition or use).
func (w *taintWalker) varOf(id *ast.Ident) *types.Var {
	if v, ok := w.info.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := w.info.Uses[id].(*types.Var)
	return v
}

// rootVar peels selectors, indexes, stars, and parens down to the base
// identifier's variable — the coarse unit of field/element taint.
func (w *taintWalker) rootVar(e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			v := w.varOf(x)
			if v != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return nil // package-level var: not tracked
			}
			return v
		default:
			return nil
		}
	}
}

func (w *taintWalker) eval(e ast.Expr) tval {
	switch x := e.(type) {
	case nil:
		return tval{}
	case *ast.Ident:
		if v := w.varOf(x); v != nil {
			return w.state[v]
		}
		return tval{}
	case *ast.ParenExpr:
		return w.eval(x.X)
	case *ast.SelectorExpr:
		// Field read or method value: taint of the root variable. With no
		// root var the base may still be a tainted expression — a method
		// picked off a call result (time.Now().UnixNano()) stays tainted. A
		// package-qualified name bottoms out at a clean identifier.
		if v := w.rootVar(x); v != nil {
			return w.state[v]
		}
		return w.eval(x.X)
	case *ast.IndexExpr:
		if w.info.Types[x.X].IsType() {
			return tval{} // generic instantiation, not an index
		}
		return joinT(w.eval(x.X), tval{})
	case *ast.SliceExpr:
		return w.eval(x.X)
	case *ast.StarExpr:
		return w.eval(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			return tval{} // channel receive: cross-goroutine flow not tracked
		}
		return w.eval(x.X)
	case *ast.BinaryExpr:
		return joinT(w.eval(x.X), w.eval(x.Y))
	case *ast.CallExpr:
		return w.evalCall(x)
	case *ast.TypeAssertExpr:
		return w.eval(x.X)
	case *ast.CompositeLit:
		var t tval
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			t = joinT(t, w.eval(el))
		}
		return t
	case *ast.KeyValueExpr:
		return w.eval(x.Value)
	case *ast.FuncLit:
		// The closure shares this walker's state: captured taint flows in
		// and out through the shared locals.
		w.walkStmt(x.Body)
		return tval{}
	default:
		return tval{}
	}
}

// evalCall handles the four call classes: host source, known sink, summarized
// module function, and everything else (conservative join of arguments).
func (w *taintWalker) evalCall(call *ast.CallExpr) tval {
	// Conversions: T(x) keeps x's taint.
	if tv, ok := w.info.Types[call.Fun]; ok && tv.IsType() {
		var t tval
		for _, a := range call.Args {
			t = joinT(t, w.eval(a))
		}
		return t
	}

	fn, _ := calleeObject(w.info, call).(*types.Func)
	if fn != nil {
		qn := qualifiedName(fn.Origin())
		if origin, ok := hostSources[qn]; ok {
			for _, a := range call.Args {
				w.eval(a)
			}
			return tval{host: origin}
		}
		if sink, ok := hostSinks[qn]; ok {
			for _, a := range call.Args {
				w.sinkHit(a.Pos(), w.eval(a), sink)
			}
			return tval{}
		}
		if callee := w.prog.FuncOf(fn); callee != nil && callee.Decl.Body != nil {
			return w.evalSummarized(call, fn, callee)
		}
	}

	// Dynamic, builtin, or external call: no summary. The result joins every
	// argument's taint so an unknown helper cannot launder a host value.
	var t tval
	t = joinT(t, w.eval(call.Fun))
	for _, a := range call.Args {
		t = joinT(t, w.eval(a))
	}
	return t
}

// evalSummarized applies a module-internal callee's taintFact: arguments
// line up with the callee's parameter indexing (receiver first for
// methods; variadic extras clamp to the last parameter).
func (w *taintWalker) evalSummarized(call *ast.CallExpr, fn *types.Func, callee *ProgFunc) tval {
	var args []ast.Expr
	sig := fn.Origin().Type().(*types.Signature)
	if sig.Recv() != nil {
		// Method value: the receiver expression joins as parameter 0. A
		// method expression (T.Method(recv, ...)) already lines up.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if s, ok := w.info.Selections[sel]; ok && s.Kind() == types.MethodVal {
				args = append(args, sel.X)
			}
		}
	}
	args = append(args, call.Args...)

	nidx := sig.Params().Len()
	if sig.Recv() != nil {
		nidx++
	}
	var out tval
	if callee.taint.returnsHost {
		out.host = callee.Name() + " → " + callee.taint.hostNote
	} else if funcHasDirective(callee.Decl, directiveWallclock) {
		// A //sovlint:wallclock annotation declares the function host-class
		// diagnostics: whatever it returns is host-derived by contract, even
		// when the current body happens not to read the clock directly.
		out.host = callee.Name() + " (//sovlint:wallclock)"
	}
	for i, a := range args {
		if a == nil {
			continue
		}
		t := w.eval(a)
		if t.empty() {
			continue
		}
		bit := i
		if bit >= nidx {
			bit = nidx - 1 // variadic tail
		}
		if bit >= 64 {
			continue
		}
		if callee.taint.paramReturn&(1<<bit) != 0 {
			out = joinT(out, t)
		}
		if callee.taint.paramSink&(1<<bit) != 0 {
			w.sinkHit(a.Pos(), t, callee.taint.sinkNote+" via "+callee.Name())
		}
	}
	return out
}

// assign writes taint to an lvalue: identifiers get a strong update,
// field/element stores taint the whole root variable (weak update — a
// clean field store never launders taint away from a dirty struct).
func (w *taintWalker) assign(lhs ast.Expr, t tval) {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if x.Name == "_" {
			return
		}
		if v := w.varOf(x); v != nil {
			if base, ok := w.pidx[v]; ok && base < 64 {
				t.params |= 1 << base // a param var keeps carrying its own flow
			}
			w.state[v] = t
		}
	default:
		if v := w.rootVar(lhs); v != nil {
			w.state[v] = joinT(w.state[v], t)
		}
	}
}

func (w *taintWalker) walkStmt(s ast.Stmt) {
	switch x := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range x.List {
			w.walkStmt(st)
		}
	case *ast.ExprStmt:
		w.eval(x.X)
	case *ast.AssignStmt:
		if len(x.Lhs) > 1 && len(x.Rhs) == 1 {
			t := w.eval(x.Rhs[0]) // tuple: every lhs gets the joined taint
			for _, l := range x.Lhs {
				w.assign(l, t)
			}
			return
		}
		for i, l := range x.Lhs {
			if i < len(x.Rhs) {
				t := w.eval(x.Rhs[i])
				if x.Tok != token.ASSIGN && x.Tok != token.DEFINE {
					t = joinT(t, w.eval(l)) // op= keeps the old taint
				}
				w.assign(l, t)
			}
		}
	case *ast.DeclStmt:
		gd, ok := x.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			if len(vs.Names) > 1 && len(vs.Values) == 1 {
				t := w.eval(vs.Values[0])
				for _, n := range vs.Names {
					w.assign(n, t)
				}
				continue
			}
			for i, n := range vs.Names {
				if i < len(vs.Values) {
					w.assign(n, w.eval(vs.Values[i]))
				}
			}
		}
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			t := w.eval(r)
			if t.host != "" && !w.fact.returnsHost {
				w.fact.returnsHost = true
				w.fact.hostNote = t.host
			}
			w.fact.paramReturn |= t.params
		}
	case *ast.IfStmt:
		w.walkStmt(x.Init)
		w.eval(x.Cond)
		w.walkStmt(x.Body)
		w.walkStmt(x.Else)
	case *ast.ForStmt:
		w.walkStmt(x.Init)
		w.eval(x.Cond)
		w.walkStmt(x.Body)
		w.walkStmt(x.Post)
	case *ast.RangeStmt:
		t := w.eval(x.X)
		if x.Key != nil {
			w.assign(x.Key, tval{})
		}
		if x.Value != nil {
			w.assign(x.Value, t)
		}
		w.walkStmt(x.Body)
	case *ast.SwitchStmt:
		w.walkStmt(x.Init)
		w.eval(x.Tag)
		w.walkStmt(x.Body)
	case *ast.TypeSwitchStmt:
		w.walkStmt(x.Init)
		w.walkStmt(x.Assign)
		w.walkStmt(x.Body)
	case *ast.CaseClause:
		for _, e := range x.List {
			w.eval(e)
		}
		for _, st := range x.Body {
			w.walkStmt(st)
		}
	case *ast.SelectStmt:
		w.walkStmt(x.Body)
	case *ast.CommClause:
		w.walkStmt(x.Comm)
		for _, st := range x.Body {
			w.walkStmt(st)
		}
	case *ast.SendStmt:
		w.eval(x.Chan)
		w.eval(x.Value)
	case *ast.GoStmt:
		w.eval(x.Call)
	case *ast.DeferStmt:
		w.eval(x.Call)
	case *ast.LabeledStmt:
		w.walkStmt(x.Stmt)
	}
}

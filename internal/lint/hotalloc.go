package lint

// hotalloc: no allocation sites in hot-path functions — directly or
// transitively.
//
// PR 2 cut the steady-state control cycle to <1 allocation; that number is
// load-bearing (the alloc gate in CI and the latency model's assumption
// that Tcomp has no GC noise in it). This analyzer makes the property
// reviewable: inside functions annotated //sov:hotpath it flags the
// constructs that allocate on every call: make/new, escaping (&T{...})
// composite literals, slice and map literals, append onto a slice declared
// without capacity, fmt calls, string concatenation and string<->[]byte
// conversions, interface boxing, and closures. Allocation sites inside
// panic arguments are exempt (shape-check error paths never run in steady
// state). Intentional exceptions carry //sovlint:ignore with a reason.
//
// The interprocedural half (DESIGN.md §7): per-function
// "may-allocate" summaries are inferred bottom-up over the call graph, so a
// hot kernel calling an allocating helper is flagged at the call site with
// a witness chain down to the offending construct. A //sovlint:ignore on an
// allocation site sanctions it for summaries too (amortized-zero grow paths
// do not poison their callers), and callees that are themselves annotated
// //sov:hotpath are skipped — their own pass reports their sites. Dynamic
// calls (function values, interface methods) and calls outside the loaded
// set have no summary and are assumed allocation-free; fmt, the worst
// stdlib offender, is still caught per-site.
//
// The //sov:hotpath annotation is the only registry of what is hot.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc flags allocation sites — intrinsic or via may-allocate callees —
// in //sov:hotpath functions.
var HotAlloc = &Analyzer{
	Name:         "hotalloc",
	Doc:          "allocation sites (direct or via may-allocate callees) in //sov:hotpath functions",
	NeedsProgram: true,
	Run:          runHotAlloc,
}

// funcKey names a declaration: "Func", or "Receiver.Method" for methods.
func funcKey(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver T[P]
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}

func runHotAlloc(p *Pass) {
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !funcHasDirective(fn, directiveHotpath) {
				continue
			}
			scanAllocSites(p.Pkg, fn, func(pos token.Pos, kind allocKind, detail string) {
				p.Reportf(pos, "%s", kind.message(fn.Name.Name, detail))
			})
			if p.Prog != nil {
				checkHotCalls(p, fn)
			}
		}
	}
}

// checkHotCalls is the v2 interprocedural rule: a hot function calling a
// module-internal, non-hot callee whose bottom-up summary says it may
// allocate is flagged at the call site with the witness chain.
func checkHotCalls(p *Pass, fn *ast.FuncDecl) {
	cold := coldSpans(p.Pkg.Info, fn.Body)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || cold.contains(call.Pos()) {
			return true
		}
		callee := p.Prog.callee(p.Pkg, call)
		if callee == nil || callee.Decl.Body == nil {
			return true // dynamic or external: no summary, assumed benign
		}
		if funcHasDirective(callee.Decl, directiveHotpath) {
			return true // its own hotalloc pass reports its sites
		}
		if !callee.alloc.may {
			return true
		}
		p.Reportf(call.Pos(),
			"call to %s in hot path %s may allocate (%s); make the callee allocation-free, annotate it //sov:hotpath, or suppress with a reason",
			callee.Name(), fn.Name.Name, callee.alloc.why)
		return true
	})
}

// allocKind classifies an allocation construct. The kind carries both the
// full per-site message and the short label used in may-allocate witness
// chains.
type allocKind int

const (
	allocMake allocKind = iota
	allocNew
	allocAppend
	allocClosure
	allocPtrLit
	allocSliceLit
	allocMapLit
	allocConcat
	allocConv
	allocBox
	allocFmt
)

// message renders the per-site finding text (unchanged from v1 so existing
// suppressions and goldens keep their meaning).
func (k allocKind) message(fnName, detail string) string {
	switch k {
	case allocMake:
		return "make in hot path " + fnName + " allocates; reuse a scratch buffer the kernel or its caller owns"
	case allocNew:
		return "new in hot path " + fnName + " allocates"
	case allocAppend:
		return "append onto unsized slice " + detail + " in hot path " + fnName + " reallocates as it grows; preallocate with capacity or reuse a buffer"
	case allocClosure:
		return "closure in hot path " + fnName + " allocates per call (captured variables escape)"
	case allocPtrLit:
		return "&composite literal in hot path " + fnName + " escapes to the heap"
	case allocSliceLit:
		return "slice literal in hot path " + fnName + " allocates its backing array"
	case allocMapLit:
		return "map literal in hot path " + fnName + " allocates"
	case allocConcat:
		return "string concatenation in hot path " + fnName + " allocates"
	case allocConv:
		return "string/[]byte conversion in hot path " + fnName + " copies the data"
	case allocBox:
		return "argument boxed into interface parameter in hot path " + fnName
	case allocFmt:
		return "fmt." + detail + " in hot path " + fnName + " allocates (formatting state, boxed arguments)"
	}
	return "allocation in hot path " + fnName
}

// label renders the short witness form for summary chains.
func (k allocKind) label(detail string) string {
	switch k {
	case allocMake:
		return "make"
	case allocNew:
		return "new"
	case allocAppend:
		return "append growth of " + detail
	case allocClosure:
		return "closure"
	case allocPtrLit:
		return "&composite literal"
	case allocSliceLit:
		return "slice literal"
	case allocMapLit:
		return "map literal"
	case allocConcat:
		return "string concatenation"
	case allocConv:
		return "string/[]byte conversion"
	case allocBox:
		return "interface boxing"
	case allocFmt:
		return "fmt." + detail
	}
	return "allocation"
}

// posRanges is a set of half-open source spans.
type posRanges []posRange

type posRange struct{ lo, hi token.Pos }

func (rs posRanges) contains(pos token.Pos) bool {
	for _, r := range rs {
		if pos > r.lo && pos < r.hi {
			return true
		}
	}
	return false
}

// coldSpans returns the argument spans of builtin panic calls: shape-check
// error paths that never run in steady state, exempt from every hotalloc
// rule.
func coldSpans(info *types.Info, body *ast.BlockStmt) posRanges {
	var cold posRanges
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					cold = append(cold, posRange{call.Lparen, call.Rparen})
				}
			}
		}
		return true
	})
	return cold
}

// scanAllocSites walks fn's body and emits every steady-state allocation
// construct (panic arguments excluded) in source order. Used by the
// per-site hot-path check and by the bottom-up may-allocate summaries.
func scanAllocSites(pkg *Package, fn *ast.FuncDecl, emit func(pos token.Pos, kind allocKind, detail string)) {
	info := pkg.Info
	cold := coldSpans(info, fn.Body)

	// Slice-sizing facts: which local slice variables are provably unsized
	// at their most recent (lexical) definition. Values: true = unsized.
	sliceState := make(map[*types.Var]bool)
	markDef := func(id *ast.Ident, init ast.Expr) {
		// x = append(...) does not establish sizing; keep the fact from the
		// declaration so `var s []T; s = append(s, v)` still counts as
		// growing an unsized slice.
		if call, ok := ast.Unparen(init).(*ast.CallExpr); ok {
			if fid, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && fid.Name == "append" {
				if _, isBuiltin := info.Uses[fid].(*types.Builtin); isBuiltin {
					return
				}
			}
		}
		obj, _ := info.Defs[id].(*types.Var)
		if obj == nil {
			obj, _ = info.Uses[id].(*types.Var)
		}
		if obj == nil {
			return
		}
		if _, isSlice := obj.Type().Underlying().(*types.Slice); !isSlice {
			return
		}
		sliceState[obj] = initIsUnsized(info, init)
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) == len(s.Rhs) {
				for i, lhs := range s.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						markDef(id, s.Rhs[i])
					}
				}
			}
		case *ast.DeclStmt:
			if gd, ok := s.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, id := range vs.Names {
						var init ast.Expr
						if i < len(vs.Values) {
							init = vs.Values[i]
						}
						markDef(id, init)
					}
				}
			}
		}
		return true
	})

	report := func(pos token.Pos, kind allocKind, detail string) {
		if !cold.contains(pos) {
			emit(pos, kind, detail)
		}
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			report(e.Pos(), allocClosure, "")
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if _, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
					report(e.Pos(), allocPtrLit, "")
				}
			}
		case *ast.CompositeLit:
			if tv, ok := info.Types[e]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					report(e.Pos(), allocSliceLit, "")
				case *types.Map:
					report(e.Pos(), allocMapLit, "")
				}
			}
		case *ast.BinaryExpr:
			if e.Op == token.ADD {
				if tv, ok := info.Types[e]; ok && tv.Value == nil {
					if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						report(e.Pos(), allocConcat, "")
					}
				}
			}
		case *ast.AssignStmt:
			if e.Tok == token.ADD_ASSIGN && len(e.Lhs) == 1 {
				if tv, ok := info.Types[e.Lhs[0]]; ok {
					if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						report(e.Pos(), allocConcat, "")
					}
				}
			}
		case *ast.CallExpr:
			scanAllocCall(e, info, sliceState, report)
		}
		return true
	})
}

// initIsUnsized classifies a slice definition's initializer: true when the
// slice provably starts with zero capacity (so the first append must
// allocate and a growing loop reallocates repeatedly).
func initIsUnsized(info *types.Info, init ast.Expr) bool {
	if init == nil {
		return true // var s []T
	}
	init = ast.Unparen(init)
	switch e := init.(type) {
	case *ast.CompositeLit:
		return len(e.Elts) == 0 // s := []T{} — a literal with elements is its own finding
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "make" {
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				if len(e.Args) >= 3 {
					return false // capacity given
				}
				if len(e.Args) == 2 {
					if tv, ok := info.Types[e.Args[1]]; ok && tv.Value != nil {
						return tv.Value.String() == "0" // make([]T, 0): no capacity
					}
					return false // make([]T, n): sized
				}
			}
		}
	case *ast.Ident:
		if e.Name == "nil" {
			return true
		}
	}
	return false // params, fields, slice expressions, call results: unknown
}

// allocFreeBuiltins are builtins whose calls never allocate and whose
// interface-looking signatures must not trip the boxing check.
var allocFreeBuiltins = map[string]bool{
	"len": true, "cap": true, "copy": true, "delete": true, "clear": true,
	"min": true, "max": true, "real": true, "imag": true, "complex": true,
	"print": true, "println": true, "panic": true, "recover": true,
}

func scanAllocCall(call *ast.CallExpr, info *types.Info,
	sliceState map[*types.Var]bool, report func(token.Pos, allocKind, string)) {

	// Builtins: make/new allocate; append onto an unsized local grows the
	// backing array; the rest are free.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				report(call.Pos(), allocMake, "")
			case "new":
				report(call.Pos(), allocNew, "")
			case "append":
				if len(call.Args) == 0 {
					return
				}
				base, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
				if !ok {
					return
				}
				obj, _ := info.Uses[base].(*types.Var)
				if obj == nil {
					obj, _ = info.Defs[base].(*types.Var)
				}
				if obj != nil && sliceState[obj] {
					report(call.Pos(), allocAppend, base.Name)
				}
			}
			return
		}
	}

	// Type conversions: string <-> []byte/[]rune copy.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to := tv.Type.Underlying()
		if av, ok := info.Types[call.Args[0]]; ok {
			from := av.Type.Underlying()
			if isStringBytesConv(to, from) {
				report(call.Pos(), allocConv, "")
				return
			}
			if _, isIface := to.(*types.Interface); isIface {
				if !isInterfaceOrNil(av) {
					report(call.Pos(), allocBox, "")
				}
				return
			}
		}
		return
	}

	// fmt is formatting + boxing + (for the S-family) a fresh string.
	if obj := calleeObject(info, call); obj != nil {
		if f, ok := obj.(*types.Func); ok && f.Pkg() != nil && f.Pkg().Path() == "fmt" {
			report(call.Pos(), allocFmt, f.Name())
			return
		}
	}

	// Interface boxing at ordinary call sites: a concrete argument passed
	// to an interface parameter allocates unless it is pointer-shaped and
	// already escapes.
	sig, ok := info.Types[call.Fun].Type.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				pt = params.At(params.Len() - 1).Type()
			} else {
				pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		if av, ok := info.Types[arg]; ok && !isInterfaceOrNil(av) {
			report(arg.Pos(), allocBox, "")
		}
	}
}

func isStringBytesConv(to, from types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteSlice := func(t types.Type) bool {
		s, ok := t.(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(to) && isByteSlice(from)) || (isByteSlice(to) && isStr(from))
}

// isInterfaceOrNil reports whether the argument is already an interface
// value or the untyped nil (neither boxes at the call).
func isInterfaceOrNil(tv types.TypeAndValue) bool {
	if tv.IsNil() {
		return true
	}
	_, isIface := tv.Type.Underlying().(*types.Interface)
	return isIface
}

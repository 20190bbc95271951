package lint

// The whole-program layer under hotalloc (DESIGN.md §7): every function
// declaration in the loaded package set, the static call graph over them,
// and a bottom-up SCC order for summary propagation.
// Construction is strictly deterministic — packages arrive sorted by import
// path, files sorted by name, declarations in source order — so the
// summaries (and therefore every finding derived from them) are identical
// from run to run. The graph is built once per Run, before the package ×
// analyzer matrix, and is immutable afterwards.
//
// Only static module-internal edges exist: a call through a function value,
// an interface method, or into a package outside the loaded set has no
// edge; hotalloc assumes those unknowns are benign.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// A ProgFunc is one function or method declaration plus its static
// module-internal call edges and bottom-up summary.
type ProgFunc struct {
	// Decl is the declaration; Decl.Body may be nil (assembly stubs).
	Decl *ast.FuncDecl
	// Pkg is the package the declaration lives in.
	Pkg *Package
	// Callees are the module-internal functions this one calls directly
	// (including calls made inside function literals in the body), each
	// once, ordered by first call site.
	Callees []*ProgFunc

	index int // position in Program.funcs

	alloc allocFact
}

// Name returns "Recv.Name" for methods, "Name" otherwise.
func (pf *ProgFunc) Name() string { return funcKey(pf.Decl) }

// Program is the whole-program view shared read-only by every pass of an
// interprocedural analyzer.
type Program struct {
	funcs []*ProgFunc
	byObj map[*types.Func]*ProgFunc
	dirs  *directiveIndex
}

// BuildProgram indexes every function declaration in pkgs, wires the static
// call graph, and computes the bottom-up may-allocate summaries. dirs
// supplies the //sovlint:ignore directives so sanctioned allocation sites do
// not poison them (marking those directives used).
func BuildProgram(pkgs []*Package, dirs *directiveIndex) *Program {
	p := &Program{byObj: make(map[*types.Func]*ProgFunc), dirs: dirs}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := pkg.Info.Defs[fn.Name].(*types.Func)
				if !ok {
					continue
				}
				pf := &ProgFunc{Decl: fn, Pkg: pkg, index: len(p.funcs)}
				p.funcs = append(p.funcs, pf)
				p.byObj[obj] = pf
			}
		}
	}
	for _, pf := range p.funcs {
		if pf.Decl.Body == nil {
			continue
		}
		seen := make(map[*ProgFunc]bool)
		ast.Inspect(pf.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := p.callee(pf.Pkg, call); callee != nil && !seen[callee] {
				seen[callee] = true
				pf.Callees = append(pf.Callees, callee)
			}
			return true
		})
	}
	computeAllocFacts(p)
	return p
}

// callee resolves a call expression to its module-internal target (generic
// instantiations resolve to their origin), or nil for dynamic calls,
// builtins, conversions, and functions outside the loaded set.
func (p *Program) callee(pkg *Package, call *ast.CallExpr) *ProgFunc {
	obj, _ := calleeObject(pkg.Info, call).(*types.Func)
	if obj == nil {
		return nil
	}
	return p.byObj[obj.Origin()]
}

// sccs returns the strongly connected components of the call graph in
// bottom-up order: every component is emitted after all components it
// calls into, so a single pass over the result (with a fixed-point loop
// inside each component) propagates summaries callee-to-caller. Tarjan's
// algorithm with deterministic visit order.
func (p *Program) sccs() [][]*ProgFunc {
	n := len(p.funcs)
	index := make([]int, n)   // 0 = unvisited; else 1-based discovery index
	lowlink := make([]int, n) // 1-based
	onStack := make([]bool, n)
	var stack []*ProgFunc
	var out [][]*ProgFunc
	next := 0

	var strongconnect func(pf *ProgFunc)
	strongconnect = func(pf *ProgFunc) {
		next++
		index[pf.index] = next
		lowlink[pf.index] = next
		stack = append(stack, pf)
		onStack[pf.index] = true
		for _, c := range pf.Callees {
			if index[c.index] == 0 {
				strongconnect(c)
				if lowlink[c.index] < lowlink[pf.index] {
					lowlink[pf.index] = lowlink[c.index]
				}
			} else if onStack[c.index] && index[c.index] < lowlink[pf.index] {
				lowlink[pf.index] = index[c.index]
			}
		}
		if lowlink[pf.index] == index[pf.index] {
			var scc []*ProgFunc
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[m.index] = false
				scc = append(scc, m)
				if m == pf {
					break
				}
			}
			out = append(out, scc)
		}
	}
	for _, pf := range p.funcs {
		if index[pf.index] == 0 {
			strongconnect(pf)
		}
	}
	return out
}

// posLabel renders pos as "file.go:line" (basename only) — stable across
// machines, for use inside finding messages where absolute paths would
// break golden files.
func posLabel(pkg *Package, pos token.Pos) string {
	position := pkg.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(position.Filename), position.Line)
}

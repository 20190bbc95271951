package lint

import (
	"go/ast"
	"go/types"
)

// walkWithFunc walks the file tracking the enclosing top-level function
// declaration: visit is called for every node with the FuncDecl whose body
// (lexically) contains it, or nil at package scope. Function literals do
// not change the enclosing declaration — a //sov:hotpath or
// //sovlint:wallclock annotation covers the closures the function spawns.
func walkWithFunc(f *ast.File, visit func(n ast.Node, fn *ast.FuncDecl)) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			ast.Inspect(d, func(n ast.Node) bool {
				if n != nil {
					visit(n, d)
				}
				return true
			})
		default:
			ast.Inspect(d, func(n ast.Node) bool {
				if n != nil {
					visit(n, nil)
				}
				return true
			})
		}
	}
}

// calleeObject resolves the function object a call expression invokes, or
// nil when the callee is dynamic (a function value, method value, etc.).
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj()
		}
		return info.Uses[fun.Sel] // package-qualified call
	}
	return nil
}

// isFuncFrom reports whether obj is the named package-level function of the
// given package import path.
func isFuncFrom(obj types.Object, pkgPath string, names ...string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

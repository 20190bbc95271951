package lint

// detnow: no wall-clock reads outside functions annotated
// //sovlint:wallclock.
//
// The whole simulation runs on virtual time (sim.Clock advances by modeled
// stage latencies), which is what makes traces byte-identical across runs
// and worker counts — the property every calibrated figure and the Eq. 1–2
// Tcomp accounting rest on. A single time.Now
// leaking into the control path silently re-couples results to host
// scheduling. The only sanctioned wall-clock consumers are diagnostics
// explicitly excluded from the determinism contract (today: sovfleet's
// host-throughput line and the benchmark's own timers).

import (
	"go/ast"
)

// DetNow flags time.Now / time.Since / time.Until calls in functions not
// annotated //sovlint:wallclock.
var DetNow = &Analyzer{
	Name: "detnow",
	Doc:  "wall-clock reads (time.Now/Since/Until) outside //sovlint:wallclock functions",
	Run:  runDetNow,
}

func runDetNow(p *Pass) {
	for _, f := range p.Pkg.Files {
		walkWithFunc(f, func(n ast.Node, fn *ast.FuncDecl) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			obj := calleeObject(p.Pkg.Info, call)
			if !isFuncFrom(obj, "time", "Now", "Since", "Until") {
				return
			}
			if funcHasDirective(fn, directiveWallclock) {
				return
			}
			where := "package scope"
			if fn != nil {
				where = fn.Name.Name
			}
			p.Reportf(call.Pos(),
				"time.%s in %s reads the wall clock; simulation is virtual-time only — annotate the function //sovlint:wallclock if this is stats-only",
				obj.Name(), where)
		})
	}
}

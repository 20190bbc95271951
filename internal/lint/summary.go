package lint

import "go/token"

// Bottom-up per-function summaries (DESIGN.md §7). Each ProgFunc carries
// one fact, inferred callee-before-caller over the SCC order that
// Program.sccs returns:
//
//   - allocFact: the function may allocate in steady state — an intrinsic
//     allocation site (hotalloc's per-site scanner, minus //sovlint:ignore-
//     sanctioned sites) or a call to a may-allocate module function. The
//     `why` string is a witness chain down to the construct.
//
// The fact is monotone (it only ever turns on within the fixed-point loop of
// one SCC), so iterating each component until nothing changes terminates.
// Everything is deterministic: function order, callee order, and SCC order
// are all derived from the sorted package/file/decl order, so the summaries
// — and every finding derived from them — are byte-identical from run to
// run.

type allocFact struct {
	// may reports that a call can allocate in steady state.
	may bool
	// why is the witness chain, e.g. "packACol → make at gemm.go:108".
	why string
}

// computeAllocFacts seeds each function's may-allocate fact from its own
// allocation sites, then propagates callee facts up the call graph. It runs
// once, inside BuildProgram — before the analyzer matrix — so every pass
// sees the same finished summaries. Sites covered by a //sovlint:ignore
// hotalloc directive are sanctioned: they do not poison the summary, and the
// directive counts as used (so it is not reported stale).
func computeAllocFacts(p *Program) {
	for _, pf := range p.funcs {
		if pf.Decl.Body == nil {
			continue
		}
		scanAllocSites(pf.Pkg, pf.Decl, func(pos token.Pos, kind allocKind, detail string) {
			position := pf.Pkg.Fset.Position(pos)
			if p.dirs.suppress(HotAlloc.Name, position.Filename, position.Line) {
				return
			}
			if !pf.alloc.may {
				pf.alloc = allocFact{may: true, why: kind.label(detail) + " at " + posLabel(pf.Pkg, pos)}
			}
		})
	}
	for _, scc := range p.sccs() {
		for changed := true; changed; {
			changed = false
			for _, pf := range scc {
				if pf.alloc.may {
					continue
				}
				for _, c := range pf.Callees {
					if c != pf && c.alloc.may {
						pf.alloc = allocFact{may: true, why: c.Name() + " → " + c.alloc.why}
						changed = true
						break
					}
				}
			}
		}
	}
}

package lint

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
)

// An Analyzer is one named invariant check over a type-checked package.
type Analyzer struct {
	// Name is the identifier used in findings and //sovlint:ignore
	// directives.
	Name string
	// Doc is a one-line description for -list output.
	Doc string
	// NeedsProgram marks interprocedural analyzers: before the package ×
	// analyzer matrix runs, the driver builds the whole-program call graph
	// and bottom-up summaries (callgraph.go, summary.go) and hands them to
	// every pass via Pass.Prog.
	NeedsProgram bool
	// Run inspects the package and reports findings through the pass.
	Run func(*Pass)
}

// A Pass is one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	// Prog is the shared whole-program view (non-nil when any analyzer in
	// the run set has NeedsProgram). No pass mutates it.
	Prog     *Program
	findings []Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.findings = append(p.findings, Finding{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Finding is one reported violation.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the canonical file:line:col: [analyzer]
// message form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Analyzers returns the full sovlint suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DetNow,
		DetRand,
		MapRange,
		HotAlloc,
	}
}

// analyzerNames returns the set of valid names for directive validation.
func analyzerNames(analyzers []*Analyzer) map[string]bool {
	m := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		m[a.Name] = true
	}
	return m
}

// Run executes every analyzer over every package, serially and in argument
// order. When any analyzer is interprocedural the whole-program call graph
// and summaries are built first and shared by every pass. Suppressed
// findings are dropped; malformed //sovlint:ignore directives and
// directives that suppressed nothing (stale suppressions) are reported as
// findings of the "sovlint" pseudo-analyzer. The result is sorted by
// position, then analyzer, then message.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	// Directive names are checked against the whole suite, staleness only
	// against the analyzers that run: a hotalloc directive is neither
	// unknown nor stale in a detnow-only run.
	ran := analyzerNames(analyzers)
	dirs := parseDirectiveIndex(pkgs, analyzerNames(Analyzers()))

	var prog *Program
	for _, an := range analyzers {
		if an.NeedsProgram {
			prog = BuildProgram(pkgs, dirs)
			break
		}
	}

	var out []Finding
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			fd := dirs.byFile[pkg.Fset.Position(f.Pos()).Filename]
			for _, m := range fd.malformed {
				out = append(out, Finding{
					Pos:      pkg.Fset.Position(m.pos),
					Analyzer: "sovlint",
					Message:  m.msg,
				})
			}
		}
		for _, an := range analyzers {
			pass := &Pass{Analyzer: an, Pkg: pkg, Prog: prog}
			an.Run(pass)
			for _, f := range pass.findings {
				if dirs.suppress(f.Analyzer, f.Pos.Filename, f.Pos.Line) {
					continue
				}
				out = append(out, f)
			}
		}
	}
	if len(pkgs) > 0 {
		out = append(out, dirs.stale(ran, pkgs[0].Fset)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return out
}

// Format renders findings one per line with file paths relative to baseDir
// (absolute paths are kept when they do not share the base).
func Format(findings []Finding, baseDir string) []string {
	out := make([]string, len(findings))
	for i, f := range findings {
		if rel, err := filepath.Rel(baseDir, f.Pos.Filename); err == nil && !filepath.IsAbs(rel) && rel != "" && rel[0] != '.' {
			f.Pos.Filename = filepath.ToSlash(rel)
		}
		out[i] = f.String()
	}
	return out
}

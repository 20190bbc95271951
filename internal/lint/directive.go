package lint

import (
	"go/ast"
	"go/token"
	"sort"
	"strconv"
	"strings"
)

// The annotation grammar (DESIGN.md §7):
//
//	//sovlint:ignore <analyzer> <reason>   — suppress <analyzer> findings on
//	                                         this line and the next; the
//	                                         reason is mandatory.
//	//sovlint:wallclock [reason]           — on a function's doc comment:
//	                                         the function may read the wall
//	                                         clock (stats/diagnostics only);
//	                                         detnow does not flag it.
//	//sov:hotpath                          — on a function's doc comment:
//	                                         hotalloc checks every
//	                                         allocation site in the body
//	                                         and every call to a
//	                                         may-allocate module function.
const (
	directiveIgnore    = "//sovlint:ignore"
	directiveWallclock = "//sovlint:wallclock"
	directiveHotpath   = "//sov:hotpath"
)

// ignoreDirective is one parsed //sovlint:ignore comment.
type ignoreDirective struct {
	analyzer string
	reason   string
	line     int
	pos      token.Pos
	// used records whether the directive did any work this run: it
	// suppressed a reported finding, or it sanctioned an allocation site
	// during summary construction (a suppressed site does not poison its
	// function's may-allocate summary). Directives whose analyzer ran but
	// that did nothing are themselves findings — suppressions cannot rot.
	used bool
}

// fileDirectives holds the suppression state for one file.
type fileDirectives struct {
	// list preserves parse order for deterministic stale reporting.
	list []*ignoreDirective
	// ignores maps analyzer name → line → directive covering that line.
	ignores map[string]map[int]*ignoreDirective
	// malformed holds directives that failed to parse (missing analyzer or
	// reason); the driver reports these as findings of the "sovlint"
	// pseudo-analyzer so a typo cannot silently disable enforcement.
	malformed []malformedDirective
}

type malformedDirective struct {
	pos token.Pos
	msg string
}

// parseFileDirectives scans every comment in the file for //sovlint:ignore
// directives. A directive suppresses findings for its analyzer on the
// directive's own line (trailing-comment style) and on the following line
// (comment-above style).
func parseFileDirectives(fset *token.FileSet, f *ast.File, known map[string]bool) *fileDirectives {
	fd := &fileDirectives{ignores: make(map[string]map[int]*ignoreDirective)}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(c.Text)
			rest, ok := strings.CutPrefix(text, directiveIgnore)
			if !ok {
				continue
			}
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				continue // e.g. //sovlint:ignoreXYZ — not ours
			}
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				fd.malformed = append(fd.malformed, malformedDirective{
					pos: c.Pos(), msg: "sovlint:ignore needs an analyzer name and a reason"})
				continue
			}
			name := fields[0]
			if known != nil && !known[name] {
				fd.malformed = append(fd.malformed, malformedDirective{
					pos: c.Pos(), msg: "sovlint:ignore names unknown analyzer " + strconv.Quote(name)})
				continue
			}
			if len(fields) < 2 {
				fd.malformed = append(fd.malformed, malformedDirective{
					pos: c.Pos(), msg: "sovlint:ignore " + name + " needs a reason"})
				continue
			}
			line := fset.Position(c.Pos()).Line
			d := &ignoreDirective{
				analyzer: name,
				reason:   strings.Join(fields[1:], " "),
				line:     line,
				pos:      c.Pos(),
			}
			fd.list = append(fd.list, d)
			m := fd.ignores[name]
			if m == nil {
				m = make(map[int]*ignoreDirective)
				fd.ignores[name] = m
			}
			m[line] = d
			m[line+1] = d
		}
	}
	return fd
}

// suppress reports whether a finding by the named analyzer at the given
// line is covered by an ignore directive, marking the directive used.
func (fd *fileDirectives) suppress(analyzer string, line int) bool {
	if fd == nil {
		return false
	}
	d := fd.ignores[analyzer][line]
	if d == nil {
		return false
	}
	d.used = true
	return true
}

// directiveIndex is the per-run view of every //sovlint:ignore directive in
// the loaded package set, shared by the finding filter and the summary
// builder (both mark directives used).
type directiveIndex struct {
	byFile map[string]*fileDirectives
}

// parseDirectiveIndex parses the directives of every file in pkgs,
// validating analyzer names against the run's analyzer set.
func parseDirectiveIndex(pkgs []*Package, known map[string]bool) *directiveIndex {
	ix := &directiveIndex{byFile: make(map[string]*fileDirectives)}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			name := pkg.Fset.Position(f.Pos()).Filename
			if _, ok := ix.byFile[name]; !ok {
				ix.byFile[name] = parseFileDirectives(pkg.Fset, f, known)
			}
		}
	}
	return ix
}

// suppress reports whether a finding at file:line by the named analyzer is
// covered, marking the covering directive used.
func (ix *directiveIndex) suppress(analyzer, file string, line int) bool {
	if ix == nil {
		return false
	}
	return ix.byFile[file].suppress(analyzer, line)
}

// stale returns one finding per directive that did no work this run, for
// analyzers that actually ran (a detrand directive is not stale in a
// detnow-only run). Results are ordered by file, then parse order.
func (ix *directiveIndex) stale(ran map[string]bool, fset *token.FileSet) []Finding {
	files := make([]string, 0, len(ix.byFile))
	for name := range ix.byFile {
		files = append(files, name)
	}
	sort.Strings(files)
	var out []Finding
	for _, name := range files {
		for _, d := range ix.byFile[name].list {
			if d.used || !ran[d.analyzer] {
				continue
			}
			out = append(out, Finding{
				Pos:      fset.Position(d.pos),
				Analyzer: "sovlint",
				Message:  "sovlint:ignore " + d.analyzer + " suppresses nothing here; remove the stale directive",
			})
		}
	}
	return out
}

// funcHasDirective reports whether the function declaration's doc comment
// carries the given directive (e.g. //sovlint:wallclock, //sov:hotpath).
func funcHasDirective(fn *ast.FuncDecl, directive string) bool {
	if fn == nil || fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		text := strings.TrimSpace(c.Text)
		if text == directive || strings.HasPrefix(text, directive+" ") {
			return true
		}
	}
	return false
}

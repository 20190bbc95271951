// The reachability audit (ROADMAP item 10): every non-test function or
// method is reached from a root that a shipped program, an example, a paper
// row or a committed benchmark depends on, or it goes. The roots come from
// the tree: (1) every main under cmd/, examples/ and benchmark/; (2) the
// Example functions; (3) the benchmarks scripts/bench.sh and ci.yml run and
// Table III names; (4) benchmark/'s test files. Package sov is the façade
// the examples import, not a root: an exported name nothing runs is dead
// like any other. Non-test bodies resolve through go/types: a call through
// an interface reaches every module method of that name and signature, and a
// module value passed to the standard library (heap.Push, fmt.Print) reaches
// all its methods. Test bodies resolve by name: pkg.Name through the file's
// imports, x.M to every method named M. The scan may keep a little dead
// code; it never flags live code.
//
// The same walk audits state (ROADMAP item 13): every field of a non-test
// struct type must be read by reached code, and a field of scalar type
// that reached code reads must also be written by it, or it is always zero.
// A write is an assignment, ++/--, a composite literal or &x.f. A module value
// handed to the standard library as an interface (fmt, encoding/json) has
// every field read and written, and a test root's x.f or {f: v} reads and
// writes every field named f. Embedded fields and fields documented
// Deprecated: (kept only so a frozen caller compiles) are not audited.
//
// The constant audit (ROADMAP item 6): an exported field of an exported
// struct type that a Default… constructor in its package returns must be
// assigned somewhere other than that constructor, or it has one value and
// is a constant. A knob only a test turns is not a knob: the writers are
// non-test code outside examples/ (reached or not), the committed
// benchmarks (root kind 3), benchmark/'s tests and the test helpers those
// reach (by name); two Default… constructors of one type that both set a
// field are two values. A type benchmark/ names (reads or writes a field
// of, holds in a field it reads, or calls the Default… constructor of) is
// exempt while that package is frozen (ROADMAP item 7). 84 settable fields
// on 14 types pass it (103 on 19 before the writer rule left tests out). A
// float field becomes a constant of the field's type: typed constant
// arithmetic rounds at every step as the field's run-time arithmetic did,
// where an untyped x*x folds exactly and can differ. A type left with no
// fields goes, and its methods become package functions.
package sov

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"sov/internal/experiments"
	"sov/internal/lint"
)

func TestReachability(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	mod, modRoot := loader.ModPath, loader.ModRoot
	key := func(fn *types.Func) string { return fn.Origin().FullName() }
	inMod := func(p *types.Package) bool {
		return p != nil && (p.Path() == mod || strings.HasPrefix(p.Path(), mod+"/"))
	}
	bodies := map[string][]func(visit func(string)){} // key → a walk per declaration
	methods := map[string][]string{}                  // method name → keys, for x.M in tests
	typedMethods := map[string][]*types.Func{}        // the same, for interface calls
	funcs := map[string]token.Position{}              // what must be reached
	fieldKey := map[*types.Var]string{}               // declared field → "pkg.T.f"
	fields := map[string]token.Position{}             // the fields the state audit checks
	scalar := map[string]bool{}                       // fields whose zero value nothing else can change
	holds := map[string]string{}                      // field → the module struct type its value is
	ctorOf := map[string]string{}                     // Default… constructor key → the type it returns
	frozen := map[string]bool{}                       // benchmark/'s declarations, test files included
	example := map[string]bool{}                      // examples/' declarations
	kinds := []string{"main", "Example", "committed benchmark", "benchmark/ test"}
	roots := make([][]string, len(kinds))
	mains := regexp.MustCompile(`^(cmd|examples)/|^benchmark$`)
	declare := func(k string, walk func(visit func(string))) { bodies[k] = append(bodies[k], walk) }

	for _, p := range pkgs {
		if p.ImportPath == mod+"/benchmark" {
			continue // frozen until ROADMAP item 7; its fields are audited when it thaws
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					for _, fl := range st.Fields.List {
						if strings.Contains(fl.Doc.Text()+fl.Comment.Text(), "Deprecated:") {
							continue
						}
						for _, name := range fl.Names {
							if v := p.Info.Defs[name].(*types.Var); name.Name != "_" {
								k := p.ImportPath + "." + ts.Name.Name + "." + name.Name
								fieldKey[v], fields[k] = k, p.Fset.Position(name.Pos())
								_, scalar[k] = v.Type().Underlying().(*types.Basic)
								if n, ok := v.Type().(*types.Named); ok && inMod(n.Obj().Pkg()) {
									holds[k] = n.Obj().Pkg().Path() + "." + n.Obj().Name()
								}
							}
						}
					}
				}
				return true
			})
		}
	}
	// allFields visits a read of every audited field a value of type t
	// holds, through pointers, containers and nested structs, and a write of
	// each that sits behind a pointer, slice or map: reflection cannot set a
	// field of a struct passed by value.
	var allFields func(t types.Type, visit func(string), shared bool, seen map[types.Type]bool)
	allFields = func(t types.Type, visit func(string), shared bool, seen map[types.Type]bool) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch u := t.Underlying().(type) {
		case *types.Pointer:
			allFields(u.Elem(), visit, true, seen)
		case *types.Slice:
			allFields(u.Elem(), visit, true, seen)
		case *types.Array:
			allFields(u.Elem(), visit, shared, seen)
		case *types.Map:
			allFields(u.Key(), visit, true, seen)
			allFields(u.Elem(), visit, true, seen)
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if k, ok := fieldKey[u.Field(i).Origin()]; ok {
					visit("read:" + k)
					if shared {
						visit("write:" + k)
					}
				}
				allFields(u.Field(i).Type(), visit, shared, seen)
			}
		}
	}

	for _, p := range pkgs {
		info := p.Info
		typed := func(n ast.Node) func(func(string)) {
			return func(visit func(string)) {
				writeOnly := map[*ast.Ident]bool{} // field uses that store without loading
				fieldOf := func(e ast.Expr) *ast.Ident {
					if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
						return sel.Sel
					}
					return nil
				}
				ast.Inspect(n, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.AssignStmt:
						for _, l := range n.Lhs {
							if id := fieldOf(l); id != nil {
								writeOnly[id] = true
							}
						}
					case *ast.IncDecStmt:
						if id := fieldOf(n.X); id != nil {
							writeOnly[id] = true
						}
					case *ast.UnaryExpr: // &x.f: read, and written through the pointer
						if obj, ok := info.Uses[fieldOf(n.X)].(*types.Var); ok && n.Op == token.AND {
							if k, ok := fieldKey[obj.Origin()]; ok {
								visit("write:" + k)
							}
						}
					case *ast.CompositeLit:
						st, isStruct := info.TypeOf(n).Underlying().(*types.Struct)
						for i, e := range n.Elts {
							if kv, ok := e.(*ast.KeyValueExpr); ok {
								if id, ok := kv.Key.(*ast.Ident); ok {
									writeOnly[id] = true
								}
							} else if isStruct { // positional: element i sets field i
								if k, ok := fieldKey[st.Field(i).Origin()]; ok {
									visit("write:" + k)
								}
							}
						}
					case *ast.CallExpr:
						if pkg := calleePkg(info, n); pkg != nil && !inMod(pkg) {
							sig, _ := info.TypeOf(n.Fun).(*types.Signature)
							for i, a := range n.Args { // the standard library may call any method of a module value
								mset := types.NewMethodSet(info.TypeOf(a))
								for i := 0; i < mset.Len(); i++ {
									if m := mset.At(i).Obj().(*types.Func); inMod(m.Pkg()) {
										visit(key(m))
									}
								}
								if sig != nil && types.IsInterface(paramType(sig, i)) { // and, through reflection, any field
									allFields(info.TypeOf(a), visit, false, map[types.Type]bool{})
								}
							}
						}
					}
					id, _ := n.(*ast.Ident)
					switch obj := info.Uses[id].(type) {
					case *types.Func:
						sig := obj.Type().(*types.Signature)
						if sig.Recv() == nil || !types.IsInterface(sig.Recv().Type()) {
							visit(key(obj))
							break
						}
						for _, m := range typedMethods[obj.Name()] {
							if types.Identical(m.Type(), sig) {
								visit(key(m))
							}
						}
					case *types.Var:
						if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
							visit(obj.Pkg().Path() + "." + obj.Name())
						}
						if k, ok := fieldKey[obj.Origin()]; ok {
							if writeOnly[id] {
								visit("write:" + k)
							} else {
								visit("read:" + k)
							}
						}
					}
					return true
				})
			}
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					for _, name := range varNames(d) {
						declare(p.ImportPath+"."+name, typed(d))
						frozen[p.ImportPath+"."+name] = p.ImportPath == mod+"/benchmark"
						example[p.ImportPath+"."+name] = strings.HasPrefix(p.ImportPath, mod+"/examples/")
					}
					continue
				}
				fn := info.Defs[fd.Name].(*types.Func)
				k := key(fn)
				declare(k, typed(fd))
				frozen[k] = p.ImportPath == mod+"/benchmark"
				example[k] = strings.HasPrefix(p.ImportPath, mod+"/examples/")
				if res := fn.Type().(*types.Signature).Results(); fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Default") && res.Len() == 1 {
					if t, ok := res.At(0).Type().(*types.Named); ok && t.Obj().Pkg() == p.Types && t.Obj().Exported() {
						ctorOf[k] = p.ImportPath + "." + t.Obj().Name()
					}
				}
				funcs[k] = p.Fset.Position(fd.Pos())
				if fd.Recv != nil {
					methods[fn.Name()] = append(methods[fn.Name()], k)
					typedMethods[fn.Name()] = append(typedMethods[fn.Name()], fn)
				}
				if k == p.ImportPath+".main" && mains.MatchString(strings.TrimPrefix(p.ImportPath, mod+"/")) {
					roots[0] = append(roots[0], k)
				}
			}
		}
	}

	var benches []*regexp.Regexp
	for file, re := range map[string]string{"scripts/bench.sh": `\bbench=(Benchmark\w*)`, ".github/workflows/ci.yml": `-bench='?([^' \n]+)`} {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range regexp.MustCompile(re).FindAllStringSubmatch(string(src), -1) {
			benches = append(benches, regexp.MustCompile(m[1]))
		}
	}
	for _, name := range regexp.MustCompile(`Benchmark\w+`).FindAllString(experiments.Table3Algorithms(), -1) {
		benches = append(benches, regexp.MustCompile("^"+name+"$"))
	}

	// Test files: declarations keyed per test package, names resolved by
	// spelling.
	err = filepath.WalkDir(modRoot, func(file string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && file != modRoot && (d.Name() == "testdata" || d.Name()[0] == '.') {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(file, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(modRoot, filepath.Dir(file))
		path := filepath.ToSlash(filepath.Join(mod, rel))
		scope, self := "test:"+path+"|"+f.Name.Name+".", path+"."
		if strings.HasSuffix(f.Name.Name, "_test") {
			self = scope
		}
		imports := map[string]string{}
		for _, is := range f.Imports {
			ip, _ := strconv.Unquote(is.Path.Value)
			imports[ip[strings.LastIndex(ip, "/")+1:]] = ip
			if is.Name != nil {
				imports[is.Name.Name] = ip
			}
		}
		byName := func(n ast.Node) func(func(string)) {
			return func(visit func(string)) {
				ast.Inspect(n, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.SelectorExpr:
						if id, ok := n.X.(*ast.Ident); ok && imports[id.Name] != "" {
							visit(imports[id.Name] + "." + n.Sel.Name)
						}
						visit("call:" + n.Sel.Name)
						visit("field:" + n.Sel.Name)
					case *ast.KeyValueExpr:
						if id, ok := n.Key.(*ast.Ident); ok {
							visit("field:" + id.Name)
							visit("set:" + id.Name)
						}
					case *ast.AssignStmt:
						for _, l := range n.Lhs {
							if sel, ok := ast.Unparen(l).(*ast.SelectorExpr); ok {
								visit("set:" + sel.Sel.Name)
							}
						}
					case *ast.IncDecStmt:
						if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
							visit("set:" + sel.Sel.Name)
						}
					case *ast.UnaryExpr:
						if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok && n.Op == token.AND {
							visit("set:" + sel.Sel.Name)
						}
					case *ast.Ident:
						visit(scope + n.Name)
						visit(self + n.Name)
					}
					return true
				})
			}
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				for _, name := range varNames(d) {
					declare(scope+name, byName(d))
					frozen[scope+name] = rel == "benchmark"
				}
				continue
			}
			k, name := scope+fd.Name.Name, fd.Name.Name
			if fd.Recv != nil {
				k = scope + "(method)." + name
				methods[name] = append(methods[name], k)
			}
			declare(k, byName(fd))
			frozen[k] = rel == "benchmark"
			switch {
			case fd.Recv != nil:
			case rel == "benchmark":
				roots[3] = append(roots[3], k)
			case strings.HasPrefix(name, "Example"):
				roots[1] = append(roots[1], k)
			case strings.HasPrefix(name, "Benchmark"):
				for _, re := range benches {
					if re.MatchString(name) {
						roots[2] = append(roots[2], k)
						break
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// reach returns every key the given roots reach.
	reach := func(roots ...[]string) map[string]bool {
		reached := map[string]bool{}
		var queue []string
		visit := func(k string) {
			if !reached[k] {
				reached[k] = true
				queue = append(queue, k)
			}
		}
		for _, rs := range roots {
			for _, k := range rs {
				visit(k)
			}
		}
		for len(queue) > 0 {
			k := queue[0]
			queue = queue[1:]
			if name, ok := strings.CutPrefix(k, "call:"); ok {
				for _, m := range methods[name] {
					visit(m)
				}
			}
			for _, walk := range bodies[k] {
				walk(visit)
			}
		}
		return reached
	}
	for i, rs := range roots {
		if len(rs) == 0 {
			t.Fatalf("found no %s root: the scan is broken, not the tree", kinds[i])
		}
	}
	reached := reach(roots...)
	var dead []string
	for k, pos := range funcs {
		if !reached[k] && !strings.HasSuffix(k, ".init") { // an init runs wherever its package links
			rel, _ := filepath.Rel(modRoot, pos.Filename)
			dead = append(dead, rel+":"+strconv.Itoa(pos.Line)+": "+k)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d of %d functions are reached by no program, example, paper row or committed benchmark; delete them with their tests, or give them a root:\n%s",
			len(dead), len(funcs), strings.Join(dead, "\n"))
	}

	var state []string
	for k, pos := range fields {
		byTest := reached["field:"+k[strings.LastIndex(k, ".")+1:]]
		var why string
		switch {
		case !reached["read:"+k] && !byTest:
			why = "no root reads it"
		case !reached["write:"+k] && !byTest && scalar[k]:
			why = "no root writes it, so it is always zero"
		default:
			continue
		}
		rel, _ := filepath.Rel(modRoot, pos.Filename)
		state = append(state, rel+":"+strconv.Itoa(pos.Line)+": "+k+": "+why)
	}
	sort.Strings(state)
	if len(state) > 0 {
		t.Errorf("%d of %d struct fields are dead state; delete them with what feeds them, or give them a reader:\n%s",
			len(state), len(fields), strings.Join(state, "\n"))
	}

	// The constant audit walks the declarations that may write a field:
	// non-test code outside examples/, and the test code a committed
	// benchmark or benchmark/'s tests reach. A test, an example or an
	// Example function is not a second caller.
	committed := reach(roots[2], roots[3])
	written, exempt := map[string]bool{}, map[string]bool{} // exempt: the types benchmark/ names
	ctorSets := map[string]map[string]bool{}                // field → the Default… constructors that set it
	typeOf := func(f string) string { return f[:max(strings.LastIndex(f, "."), 0)] }
	for k, walks := range bodies {
		if example[k] || strings.HasPrefix(k, "test:") && !committed[k] {
			continue
		}
		for _, walk := range walks {
			walk(func(v string) {
				kind, f, _ := strings.Cut(v, ":")
				if frozen[k] {
					switch {
					case kind == "read" || kind == "write": // a struct-valued field names its type too
						exempt[typeOf(f)], exempt[holds[f]] = true, true
					case ctorOf[v] != "":
						exempt[ctorOf[v]] = true
					}
				}
				switch {
				case kind == "set" || kind == "write" && ctorOf[k] != typeOf(f):
					written[f] = true
				case kind == "write":
					if ctorSets[f] == nil {
						ctorSets[f] = map[string]bool{}
					}
					ctorSets[f][k] = true
				}
			})
		}
	}
	for f, ctors := range ctorSets {
		written[f] = written[f] || len(ctors) > 1
	}
	defaults := map[string]bool{}
	for _, typ := range ctorOf {
		defaults[typ] = true
	}
	var settable, constant []string
	for k, pos := range fields {
		typ, name := k[:strings.LastIndex(k, ".")], k[strings.LastIndex(k, ".")+1:]
		if !defaults[typ] || !token.IsExported(name) {
			continue
		}
		settable = append(settable, k)
		if !written[k] && !written[name] && !exempt[typ] {
			rel, _ := filepath.Rel(modRoot, pos.Filename)
			constant = append(constant, rel+":"+strconv.Itoa(pos.Line)+": "+k)
		}
	}
	sort.Strings(constant)
	t.Logf("%d settable fields across %d types a Default… constructor returns", len(settable), len(defaults))
	if len(constant) > 0 {
		t.Errorf("%d of %d settable fields are set only by their Default… constructor; make each a constant:\n%s",
			len(constant), len(settable), strings.Join(constant, "\n"))
	}
}

// paramType returns the type of a call's i-th argument slot.
func paramType(sig *types.Signature, i int) types.Type {
	if n := sig.Params().Len(); sig.Variadic() && i >= n-1 {
		return sig.Params().At(n - 1).Type().(*types.Slice).Elem()
	}
	return sig.Params().At(i).Type()
}

// calleePkg returns the package of a call's static callee: nil for builtins,
// conversions and calls through function values.
func calleePkg(info *types.Info, call *ast.CallExpr) *types.Package {
	var id *ast.Ident
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	}
	if fn, ok := info.Uses[id].(*types.Func); ok {
		return fn.Pkg()
	}
	return nil
}

// varNames returns the names a var declaration declares.
func varNames(d ast.Decl) (names []string) {
	if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.VAR {
		for _, s := range gd.Specs {
			for _, n := range s.(*ast.ValueSpec).Names {
				names = append(names, n.Name)
			}
		}
	}
	return names
}

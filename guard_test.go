package prete

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The exception tables name objects declared under internal/ as "pkg.Func",
// "pkg.Type.Method" or "pkg.Type.Field", pkg being the directory under
// internal/. An entry is only for a test oracle, a fault tool, a method the
// standard library calls through an interface the checks cannot see, or a
// test seam, one reason each. An entry whose object is gone or gains a
// program use fails its test until it is dropped.

// callerExceptions lists the functions and methods that keep no program
// caller on purpose. What an entry calls counts as called.
var callerExceptions = map[string]string{
	"core.SolveExact":                    "oracle: the monolithic MIP that tests check the Benders solve against",
	"experiments.MeasuredQuality":        "oracle: quality tests derive Fig 15's predictor quality from a trained model",
	"fault.CrashPoint":                   "fault tool: derives a seeded controller crash point",
	"fault.CtlCrash.ArmHook":             "fault tool: runs a hook at the crash point",
	"fault.CtlCrash.Attempts":            "fault tool: RPC attempts the crash transport has seen",
	"fault.CtlCrash.Halted":              "fault tool: reports that the injected crash fired",
	"fault.TornJournalTail":              "fault tool: tears the tail of a journal on disk",
	"fault.WipeStateMagic":               "fault tool: destroys a state file's magic",
	"lp.MIP.IsBinary":                    "oracle: MIP tests check which columns are binary",
	"lp.Problem.NumConstraints":          "oracle: the captured-LP tests check an LP's shape",
	"lp.Problem.NumVars":                 "oracle: the captured-LP tests check an LP's shape",
	"ml.DecisionTree.Depth":              "oracle: tests check the tree honours its depth cap",
	"ml.NewOracle":                       "oracle: the perfect-knowledge predictor tests compare against",
	"optical.FiberSim.BaselineDB":        "oracle: tests check healthy loss against the fiber's baseline",
	"persist.EncodeReplFrame":            "fault tool: replication tests and FuzzReplicationStream forge wire frames",
	"routing.TunnelSet.ResidualCoverage": "oracle: tests check which flows keep a live tunnel under a cut",
	"routing.ValidatePath":               "oracle: tests check every built tunnel is a valid path",
	"sim.ReplayResult.LossRate":          "oracle: replay tests compare schemes by loss rate",
	"stats.LogNormal.CDF":                "oracle: tests check Sample against the closed-form CDF",
	"stats.Weibull.CDF":                  "oracle: tests check Sample against the closed-form CDF",
	"te.UniformClassSpec":                "oracle: a one-tier classed solve must equal the plain solve",
	"telemetry.Downsample":               "oracle: tests check the detector's input rate against it",
	"telemetry.ProcessBatch":             "oracle: the serial whole-series reference ingest is checked against",
	"topology.Network.FailedLinks":       "oracle: tests check a fiber cut's IP links",
	"topology.Network.Validate":          "oracle: tests re-check a network's structural invariants",
	"wan.Controller.Epoch":               "oracle: the failover matrix checks the epoch a promoted controller recovered",
	"wan.EventLog.Events":                "oracle: the chaos and failover tests diff the controller's event log",
	"wan.SiteSet.Clock":                  "fault tool: tests advance the lease clock to force expiries",
	"wan.SiteSet.CrashSite":              "fault tool: kills a standby site",
	"wan.SiteSet.SetLeaderReachable":     "fault tool: partitions the leader from its sites",
	"wan.SwitchAgent.FenceRejections":    "oracle: fencing tests count the requests an agent refused",
	"wan.SwitchAgent.MaxGen":             "oracle: fencing tests read the generation an agent is fenced to",
	"wan.SwitchAgent.NumTunnels":         "oracle: the chaos tests compare each agent's tunnel table across replays",
	"wan.Testbed.Signal":                 "fault tool: the F9 and F13 failover rows add a storm fiber beside the VOA's",
	"wan.Testbed.SolveCacheStats":        "oracle: warm-start tests read the solve cache's counters",
}

// optionExceptions lists the option fields that program code leaves at
// their zero value or default on purpose.
var optionExceptions = map[string]string{
	"core.Optimizer.DisablePolish":         "ablation: the root BenchmarkAblation* targets switch the polish re-solve off",
	"core.Optimizer.DisableStructuralCuts": "ablation: the root BenchmarkAblation* targets switch the seeding cuts off",
	"persist.Options.FS":                   "test seam: crash tests substitute a file system that tears or fails writes",
	"persist.ReplicatorOptions.FS":         "test seam: replication tests substitute a file system that tears or fails writes",
	"wan.SiteOptions.Heartbeat":            "test seam: failover tests drop or delay the standby heartbeat",
	"wan.SiteOptions.Log":                  "test seam: the failover replay tests diff the sites' event log",
	"wan.SiteOptions.Transport":            "test seam: failover tests route site traffic through a faulty transport",
}

// fieldExceptions lists the struct fields that program code writes and
// never reads on purpose.
var fieldExceptions = map[string]string{
	"core.Result.LB":                 "oracle: tests check the Benders lower bound against the monolithic MIP",
	"core.Result.UB":                 "oracle: tests check the Benders upper bound against the monolithic MIP",
	"optical.Sample.RxDBm":           "public record: the telemetry sample the examples fill and callers stream in",
	"persist.RecoveryStats.TornTail": "oracle: crash-point tests check which recoveries cut a torn tail",
	"stats.ChiSquareResult.DF":       "oracle: goodness-of-fit tests check the degrees of freedom",
	"wan.SiteStatus.LeaseGen":        "oracle: fencing tests read the lease generation a site last saw",
}

// program is every non-test Go file under a module root, parsed and
// type-checked into one types.Info.
type program struct {
	module string
	fset   *token.FileSet
	paths  []string               // the packages' import paths, sorted
	files  map[string][]*ast.File // import path -> the package's files
	info   *types.Info
}

// loadProgram parses every non-test Go file under root, skipping
// directories named testdata or starting with "." or "_", and type-checks
// the files of each directory dir as package module/dir. (bench/ is its own
// module, named prete/bench.) The module's packages are checked from the
// parsed files, the standard library from the export data that one
// batched go list names.
func loadProgram(root, module string) (*program, error) {
	p := &program{module: module, fset: token.NewFileSet(), files: make(map[string][]*ast.File), info: &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}}
	std := []string{"unsafe"} // never empty, so go list never lists the current directory
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if name := d.Name(); d.IsDir() && path != root && (name[0] == '.' || name[0] == '_' || name == "testdata") {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(p.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := module
		if dir, _ := filepath.Rel(root, filepath.Dir(path)); dir != "." {
			pkg += "/" + filepath.ToSlash(dir)
		}
		if p.files[pkg] == nil {
			p.paths = append(p.paths, pkg)
		}
		p.files[pkg] = append(p.files[pkg], f)
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); !p.inModule(path) {
				std = append(std, path)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	list := exec.Command("go", append([]string{"list", "-export", "-deps", "-f", "{{.ImportPath}} {{.Export}}"}, std...)...)
	list.Stderr = os.Stderr
	out, err := list.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %v", err)
	}
	exports := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, " ")
		exports[path] = file
	}
	stdlib := importer.ForCompiler(p.fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(exports[path]) })
	pkgs := make(map[string]*types.Package)
	var conf types.Config
	conf.Importer = importerFunc(func(path string) (*types.Package, error) {
		if !p.inModule(path) {
			return stdlib.Import(path)
		}
		if pkgs[path] != nil {
			return pkgs[path], nil
		}
		pkg, err := conf.Check(path, p.fset, p.files[path], p.info)
		pkgs[path] = pkg
		return pkg, err
	})
	sort.Strings(p.paths)
	for _, path := range p.paths {
		if _, err := conf.Importer.Import(path); err != nil {
			return nil, err
		}
	}
	return p, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func (p *program) inModule(path string) bool {
	return path == p.module || strings.HasPrefix(path, p.module+"/")
}

func (p *program) internal(path string) bool { return strings.HasPrefix(path, p.module+"/internal/") }

// key names obj, a package-level object or a method or field of the named
// type typ (nil for none), as the exception tables do.
func (p *program) key(typ *types.TypeName, obj types.Object) string {
	k := strings.TrimPrefix(obj.Pkg().Path(), p.module+"/internal/") + "."
	if typ != nil {
		k += typ.Name() + "."
	}
	return k + obj.Name()
}

// finding is one object a check names: declared at pos and unused, or
// stale: listed among the exceptions while it is gone or used.
type finding struct {
	pos   token.Position
	key   string
	stale bool
}

// findings lists the declared objects that are neither used nor excepted,
// in source order, then the stale exceptions.
func (p *program) findings(decls map[types.Object]string, used map[types.Object]bool, exceptions map[string]string) []finding {
	var out, stale []finding
	listed := make(map[string]bool)
	for obj, key := range decls {
		_, excepted := exceptions[key]
		if !used[obj] && !excepted {
			out = append(out, finding{pos: p.fset.Position(obj.Pos()), key: key})
		}
		listed[key] = excepted && !used[obj]
	}
	for key := range exceptions {
		if !listed[key] {
			stale = append(stale, finding{key: key, stale: true})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pos.String() < out[j].pos.String() })
	sort.Slice(stale, func(i, j int) bool { return stale[i].key < stale[j].key })
	return append(out, stale...)
}

// uncalled finds the functions and methods declared under internal/ that
// no program code reaches. Reachability starts from every function outside
// internal/, every init function and every package-level declaration other
// than a function; a function reached only from unreached ones is
// unreached too. A use is a reference to the callee's origin. A concrete
// method is also reached when it is named String, Error or Unwrap, which
// fmt and errors call, or when its type implements an interface that
// reached code names or passes to a call and the method is in that
// interface. What an exception reaches counts as used.
func (p *program) uncalled(exceptions map[string]string) []finding {
	decls := make(map[types.Object]string)
	body := make(map[types.Object]*ast.FuncDecl)
	var queue []ast.Node // reached code still to visit
	for _, path := range p.paths {
		for _, f := range p.files[path] {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !p.internal(path) || (fd.Recv == nil && fd.Name.Name == "init") {
					queue = append(queue, d)
					continue
				}
				fn := p.info.Defs[fd.Name]
				var typ *types.TypeName
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					typ = namedOf(recv.Type()).Obj()
				}
				decls[fn], body[fn] = p.key(typ, fn), fd
			}
		}
	}
	reached := make(map[types.Object]bool)
	ifaces := make(map[*types.Interface]bool)
	mark := func(fn *types.Func) {
		if fn = fn.Origin(); body[fn] != nil && !reached[fn] {
			reached[fn] = true
			queue = append(queue, body[fn])
		}
	}
	named := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces[it] = true
		}
	}
	dispatched := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		t := namedOf(recv.Type())
		for it := range ifaces {
			if m, _, _ := types.LookupFieldOrMethod(it, false, fn.Pkg(), fn.Name()); m != nil &&
				(types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
				return true
			}
		}
		return fn.Name() == "String" || fn.Name() == "Error" || fn.Name() == "Unwrap"
	}
	settle := func() {
		for len(queue) > 0 {
			for len(queue) > 0 {
				n := queue[0]
				queue = queue[1:]
				ast.Inspect(n, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Ident:
						switch obj := p.info.Uses[n].(type) {
						case *types.Func:
							mark(obj)
							if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
								named(recv.Type())
							}
						case *types.TypeName:
							named(obj.Type())
						}
					case *ast.CallExpr:
						if sig, ok := p.info.Types[n.Fun].Type.(*types.Signature); ok {
							for i := 0; i < sig.Params().Len(); i++ {
								named(sig.Params().At(i).Type())
							}
						}
					}
					return true
				})
			}
			for fn := range decls {
				if !reached[fn] && dispatched(fn.(*types.Func)) {
					mark(fn.(*types.Func))
				}
			}
		}
	}
	settle()
	used := maps.Clone(reached)
	for fn, key := range decls {
		if _, ok := exceptions[key]; ok {
			mark(fn.(*types.Func))
		}
	}
	settle()
	for fn := range reached {
		if _, ok := exceptions[decls[fn]]; !ok {
			used[fn] = true
		}
	}
	return p.findings(decls, used, exceptions)
}

// namedOf returns the named type t is or points to.
func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return t.(*types.Named)
}

// structFields returns the key of every named field of every struct type
// declared at package level under internal/.
func (p *program) structFields() map[types.Object]string {
	keys := make(map[types.Object]string)
	for _, path := range p.paths {
		for _, f := range p.files[path] {
			for _, d := range f.Decls {
				if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.TYPE && p.internal(path) {
					for _, spec := range gd.Specs {
						ts := spec.(*ast.TypeSpec)
						if st, ok := ts.Type.(*ast.StructType); ok {
							for _, fl := range st.Fields.List {
								for _, n := range fl.Names {
									if n.Name != "_" {
										keys[p.info.Defs[n]] = p.key(p.info.Defs[ts.Name].(*types.TypeName), p.info.Defs[n])
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return keys
}

// field returns the struct field sel selects, or nil.
func (p *program) field(sel *ast.SelectorExpr) types.Object {
	if s := p.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
		return s.Obj().(*types.Var).Origin()
	}
	return nil
}

// unreadFields finds the struct fields declared under internal/ that no
// program code reads. A read is a selection of the field, except as the
// target of =, :=, op= or ++/-- (after stripping index expressions, so
// x.F[k] = v writes F) and as the first argument of x.F = append(x.F,
// ...). A composite literal's keys are writes. The fields of a struct used
// as a map key are read by every key comparison.
func (p *program) unreadFields(exceptions map[string]string) []finding {
	written := make(map[*ast.SelectorExpr]bool)
	target := func(e ast.Expr) *ast.SelectorExpr {
		for {
			switch x := e.(type) {
			case *ast.IndexExpr:
				e = x.X
			case *ast.IndexListExpr:
				e = x.X
			case *ast.ParenExpr:
				e = x.X
			case *ast.SelectorExpr:
				return x
			default:
				return nil
			}
		}
	}
	for _, path := range p.paths {
		for _, f := range p.files[path] {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						if sel := target(lhs); sel != nil {
							written[sel] = true
							if call, ok := n.Rhs[min(i, len(n.Rhs)-1)].(*ast.CallExpr); ok && len(n.Lhs) == len(n.Rhs) &&
								p.info.Types[call.Fun].IsBuiltin() && len(call.Args) > 0 {
								if arg := target(call.Args[0]); arg != nil && p.field(arg) == p.field(sel) {
									written[arg] = true // x.F = append(x.F, ...)
								}
							}
						}
					}
				case *ast.IncDecStmt:
					if sel := target(n.X); sel != nil {
						written[sel] = true
					}
				}
				return true
			})
		}
	}
	read := make(map[types.Object]bool)
	for sel := range p.info.Selections {
		if v := p.field(sel); v != nil && !written[sel] {
			read[v] = true
		}
	}
	var compared func(t types.Type)
	compared = func(t types.Type) {
		switch t := t.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				read[t.Field(i).Origin()] = true
				compared(t.Field(i).Type())
			}
		case *types.Array:
			compared(t.Elem())
		}
	}
	for _, tv := range p.info.Types {
		if m, ok := tv.Type.(*types.Map); ok {
			compared(m.Key())
		}
	}
	return p.findings(p.structFields(), read, exceptions)
}

// unsetOptions finds each exported field of an exported *Config or
// *Options struct under internal/, and of core.Optimizer, that program
// code never writes, or writes only to a constant inside its own package:
// in its Default* function, or where a zero value is defaulted. Such a
// field has one value, so it belongs in a constant. A write is the target
// of an assignment or ++/--, an operand of &, or an element of a composite
// literal of the struct; writing x.F.G also writes a struct-valued F. Only
// a value given by = or in a literal can be a constant: a constant
// expression, nil, or a composite literal of such values, like osFS{}.
func (p *program) unsetOptions(exceptions map[string]string) []finding {
	options := make(map[types.Object]string)
	for v, key := range p.structFields() {
		typ := strings.TrimSuffix(key, "."+v.Name())
		name := typ[strings.LastIndex(typ, ".")+1:]
		if v.Exported() && token.IsExported(name) && (strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || typ == "core.Optimizer") {
			options[v] = key
		}
	}
	var constant func(e ast.Expr) bool
	constant = func(e ast.Expr) bool {
		if tv := p.info.Types[e]; tv.Value != nil || tv.IsNil() {
			return true
		}
		lit, ok := ast.Unparen(e).(*ast.CompositeLit)
		for i := 0; ok && i < len(lit.Elts); i++ {
			elt := lit.Elts[i]
			if kv, isKV := elt.(*ast.KeyValueExpr); isKV {
				elt = kv.Value
			}
			ok = constant(elt)
		}
		return ok
	}
	set := make(map[types.Object]bool)
	for _, path := range p.paths {
		write := func(v types.Object, value ast.Expr) {
			if value == nil || v.Pkg().Path() != path || !constant(value) {
				set[v] = true
			}
		}
		writeTo := func(e, value ast.Expr) {
			for sel, _ := e.(*ast.SelectorExpr); p.field(sel) != nil; sel, _ = e.(*ast.SelectorExpr) {
				write(p.field(sel), value)
				if _, ok := p.info.Types[sel.X].Type.Underlying().(*types.Struct); !ok {
					return
				}
				e, value = sel.X, nil
			}
		}
		for _, f := range p.files[path] {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						var value ast.Expr
						if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
							value = n.Rhs[i]
						}
						writeTo(lhs, value)
					}
				case *ast.IncDecStmt:
					writeTo(n.X, nil)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						writeTo(n.X, nil)
					}
				case *ast.CompositeLit:
					if st, ok := p.info.Types[n].Type.Underlying().(*types.Struct); ok {
						for i, elt := range n.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								write(p.info.Uses[kv.Key.(*ast.Ident)].(*types.Var).Origin(), kv.Value)
							} else {
								write(st.Field(i).Origin(), elt)
							}
						}
					}
				}
				return true
			})
		}
	}
	return p.findings(options, set, exceptions)
}

var loadModule = sync.OnceValues(func() (*program, error) { return loadProgram(".", "prete") })

// report loads the module once for all three guards, runs check over it
// and fails t on each finding.
func report(t *testing.T, check func(*program) []finding, table, unused, used string) {
	t.Helper()
	p, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range check(p) {
		if f.stale {
			t.Errorf("%s lists %s, which is gone or %s: drop the entry", table, f.key, used)
		} else {
			t.Errorf("%s: %s %s", f.pos, f.key, unused)
		}
	}
}

// TestEveryInternalFuncHasACaller fails on every function or method under
// internal/ that no program code (root, internal/, cmd/, examples/ and
// bench/; never tests) reaches.
func TestEveryInternalFuncHasACaller(t *testing.T) {
	report(t, func(p *program) []finding { return p.uncalled(callerExceptions) }, "callerExceptions",
		"has no caller outside tests: give it a program caller or delete it", "has a program caller")
}

// TestEveryOptionIsSet fails on every option field that program code never
// sets, or sets only to a constant in its own package.
func TestEveryOptionIsSet(t *testing.T) {
	report(t, func(p *program) []finding { return p.unsetOptions(optionExceptions) }, "optionExceptions",
		"is never set by program code, or only to a constant in its own package: make it a constant", "is set by program code")
}

// TestEveryFieldIsRead fails on every struct field under internal/ that
// program code never reads: state kept for nobody, to delete with whatever
// fills it.
func TestEveryFieldIsRead(t *testing.T) {
	report(t, func(p *program) []finding { return p.unreadFields(fieldExceptions) }, "fieldExceptions",
		"is never read by program code: delete it with what fills it", "is read by program code")
}

// TestGuardFixture runs the three checks over testdata/guard, which plants
// one case of each kind a name match hides beside its namesake, and one
// stale entry per exception table.
func TestGuardFixture(t *testing.T) {
	p, err := loadProgram(filepath.Join("testdata", "guard"), "fixture")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		check string
		got   []finding
		want  []string
	}{
		{"callers", p.uncalled(map[string]string{"a.Oracle": "oracle", "a.Gone": "no such function"}),
			[]string{"a.Uncalled.Run", "a.Gone (stale)"}},
		{"options", p.unsetOptions(map[string]string{"a.Options.Name": "the program sets it"}),
			[]string{"a.Options.Level", "a.Options.Name (stale)"}},
		{"fields", p.unreadFields(map[string]string{"a.Reader.Count": "the program reads it"}),
			[]string{"a.Writer.Count", "a.Acc.Sum", "a.Reader.Count (stale)"}},
	} {
		var got []string
		for _, f := range c.got {
			if f.stale {
				f.key += " (stale)"
			}
			got = append(got, f.key)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s check found %q, want %q", c.check, got, c.want)
		}
	}
}

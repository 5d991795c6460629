package prete

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// callerExceptions lists the functions and methods under internal/ that
// keep no program caller on purpose, each with the reason. Keys are
// "pkg.Func" or "pkg.Type.Method", pkg being the directory under internal/.
// An entry is only for a test oracle, a fault tool, or a method the
// standard library calls through an interface; a program caller is always
// preferred to an entry. What an entry calls counts as referenced.
var callerExceptions = map[string]string{
	"core.BuildClassesP":                 "oracle: TestBuildClassesMatchesOracle and BenchmarkParallelBuildClasses build classes outside a solve",
	"core.SolveExact":                    "oracle: the monolithic MIP that tests check the Benders solve against",
	"experiments.MeasuredQuality":        "oracle: quality tests derive Fig 15's predictor quality from a trained model",
	"fault.CrashPoint":                   "fault tool: derives a seeded controller crash point",
	"fault.CtlCrash.ArmHook":             "fault tool: runs a hook at the crash point",
	"fault.CtlCrash.Attempts":            "fault tool: RPC attempts the crash transport has seen",
	"fault.CtlCrash.Halted":              "fault tool: reports that the injected crash fired",
	"fault.Halt.Unwrap":                  "errors.Is and errors.As call it through the Unwrap interface",
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
	"routing.pq.Less":                    "container/heap calls it through heap.Interface",
	"routing.pq.Swap":                    "container/heap calls it through heap.Interface",
	"sim.ReplayResult.LossRate":          "oracle: replay tests compare schemes by loss rate",
	"stats.Exponential.CDF":              "oracle: tests check Sample against the closed-form CDF",
	"stats.Geometric.CDF":                "oracle: tests check Sample against the closed-form CDF",
	"stats.LogNormal.CDF":                "oracle: tests check Sample against the closed-form CDF",
	"stats.Weibull.CDF":                  "oracle: tests check Sample and Quantile against the closed-form CDF",
	"te.UniformClassSpec":                "oracle: a one-tier classed solve must equal the plain solve",
	"telemetry.Downsample":               "oracle: tests check the detector's input rate against it",
	"telemetry.ProcessBatch":             "oracle: the serial whole-series reference ingest is checked against",
	"topology.Network.FailedLinks":       "oracle: tests check a fiber cut's IP links",
	"wan.SiteSet.Clock":                  "fault tool: tests advance the lease clock to force expiries",
	"wan.SiteSet.CrashSite":              "fault tool: kills a standby site",
	"wan.SiteSet.SetLeaderReachable":     "fault tool: partitions the leader from its sites",
	"wan.SwitchAgent.FenceRejections":    "oracle: fencing tests count the requests an agent refused",
	"wan.SwitchAgent.MaxGen":             "oracle: fencing tests read the generation an agent is fenced to",
	"wan.Testbed.SolveCacheStats":        "oracle: warm-start tests read the solve cache's counters",
}

// funcDecl is one function or method declared in the tree.
type funcDecl struct {
	key  string // "internal/wan.Lease.Renew", "cmd/prete-sim.main", ...
	pkg  string // the package directory relative to the module root
	fn   *ast.FuncDecl
	file *ast.File
}

// srcFile is one parsed non-test Go file of the program.
type srcFile struct {
	pkg string // the package directory relative to the module root
	f   *ast.File
}

// parseProgram parses every non-test Go file in the tree: root, internal/,
// cmd/, examples/ and bench/.
func parseProgram(t *testing.T) (*token.FileSet, []srcFile) {
	t.Helper()
	fset := token.NewFileSet()
	var files []srcFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, srcFile{pkg: filepath.ToSlash(filepath.Dir(path)), f: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, files
}

// TestEveryInternalFuncHasACaller parses every non-test Go file in the tree
// (root, internal/, cmd/, examples/ and bench/) and fails when a function
// or method declared under internal/ is referenced nowhere outside its own
// body. Reachability starts from every function outside internal/, every
// init function and every package-level variable; a function reached only
// from unreferenced functions is unreferenced too.
//
// The check reads syntax only, so it errs towards "referenced": a package
// function counts as referenced by its bare name inside its package or by
// pkg.Name where pkg is imported, and a method by any selector spelling its
// name, whatever the receiver.
func TestEveryInternalFuncHasACaller(t *testing.T) {
	fset, files := parseProgram(t)
	var decls []*funcDecl
	var roots []ast.Node // package-level declarations other than functions
	var rootFiles []*ast.File
	for _, sf := range files {
		for _, d := range sf.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				key := sf.pkg + "." + d.Name.Name
				if d.Recv != nil {
					key = sf.pkg + "." + recvType(d.Recv.List[0].Type) + "." + d.Name.Name
				}
				decls = append(decls, &funcDecl{key: key, pkg: sf.pkg, fn: d, file: sf.f})
			case *ast.GenDecl:
				roots = append(roots, d)
				rootFiles = append(rootFiles, sf.f)
			}
		}
	}

	funcs := make(map[string][]int)   // "pkg.Name" -> package-level functions
	methods := make(map[string][]int) // "Name" -> methods of that name anywhere
	for i, d := range decls {
		if name := d.fn.Name.Name; d.fn.Recv != nil {
			methods[name] = append(methods[name], i)
		} else {
			funcs[d.pkg+"."+name] = append(funcs[d.pkg+"."+name], i)
		}
	}

	reached := make([]bool, len(decls))
	var queue []int
	mark := func(ids []int) {
		for _, i := range ids {
			if !reached[i] {
				reached[i] = true
				queue = append(queue, i)
			}
		}
	}
	// visit marks everything n references, from a file of package pkg.
	visit := func(n ast.Node, f *ast.File, pkg string) {
		imports := importDirs(f)
		var walk func(ast.Node) bool
		walk = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := imports[x.Name]; ok {
						mark(funcs[dir+"."+n.Sel.Name])
						return false
					}
				}
				mark(methods[n.Sel.Name])
				ast.Inspect(n.X, walk)
				return false
			case *ast.Ident:
				mark(funcs[pkg+"."+n.Name])
			}
			return true
		}
		ast.Inspect(n, walk)
	}
	for i, d := range decls {
		if !strings.HasPrefix(d.pkg, "internal/") || (d.fn.Recv == nil && d.fn.Name.Name == "init") {
			mark([]int{i})
		}
	}
	for i, n := range roots {
		visit(n, rootFiles[i], filepath.ToSlash(filepath.Dir(fset.Position(n.Pos()).Filename)))
	}
	drain := func() {
		for len(queue) > 0 {
			d := decls[queue[0]]
			queue = queue[1:]
			// The declaration's own name is not a reference to it: visit
			// the receiver, signature and body only.
			fn := d.fn
			if fn.Recv != nil {
				visit(fn.Recv, d.file, d.pkg)
			}
			visit(fn.Type, d.file, d.pkg)
			if fn.Body != nil {
				visit(fn.Body, d.file, d.pkg)
			}
		}
	}
	drain()

	// An entry must name a function the program does not reach; what it
	// calls is then kept with it.
	listed := make(map[string]bool)
	for i, d := range decls {
		key := strings.TrimPrefix(d.key, "internal/")
		if _, ok := callerExceptions[key]; ok && !reached[i] {
			listed[key] = true
			mark([]int{i})
		}
	}
	drain()
	var stale []string
	for key := range callerExceptions {
		if !listed[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("callerExceptions lists %s, which is gone or has a program caller: drop the entry", key)
	}
	var dead []string
	for i, d := range decls {
		if !reached[i] {
			dead = append(dead, fset.Position(d.fn.Pos()).String()+": "+strings.TrimPrefix(d.key, "internal/"))
		}
	}
	sort.Strings(dead)
	for _, s := range dead {
		t.Errorf("%s has no caller outside tests: give it a program caller or delete it", s)
	}
}

// recvType returns the receiver's type name, without pointer or type
// parameters.
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// importDirs maps each of f's import names to the imported package's
// directory relative to the module root; imports outside the module are
// left out.
func importDirs(f *ast.File) map[string]string {
	m := make(map[string]string)
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil || (path != "prete" && !strings.HasPrefix(path, "prete/")) {
			continue
		}
		dir := strings.TrimPrefix(strings.TrimPrefix(path, "prete"), "/")
		if dir == "" {
			dir = "."
		}
		name := dir[strings.LastIndex(dir, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		m[name] = dir
	}
	return m
}

package prete

import (
	"go/ast"
	"go/token"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// optionExceptions lists the option fields that program code leaves at
// their zero value or default on purpose, each with the reason. Keys are
// "pkg.Type.Field", pkg being the directory under internal/. An entry whose
// field is gone or gains a program writer fails the test.
var optionExceptions = map[string]string{
	"core.Optimizer.DisablePolish":         "ablation: the root BenchmarkAblation* targets switch the polish re-solve off",
	"core.Optimizer.DisableStructuralCuts": "ablation: the root BenchmarkAblation* targets switch the seeding cuts off",
	"persist.Options.FS":                   "test seam: crash tests substitute a file system that tears or fails writes",
	"persist.ReplicatorOptions.FS":         "test seam: replication tests substitute a file system that tears or fails writes",
	"wan.SiteOptions.Heartbeat":            "test seam: failover tests drop or delay the standby heartbeat",
	"wan.SiteOptions.Transport":            "test seam: failover tests route site traffic through a faulty transport",
}

// TestEveryOptionIsSet parses every non-test Go file in the tree and fails
// on each exported field of an exported *Config or *Options struct under
// internal/, or of core.Optimizer, that program code never writes, or
// writes only to a constant inside its own package: in its Default*
// function, or where a zero value is defaulted. Such a field has one
// value, so it belongs in a constant.
//
// The check reads syntax only, so it errs towards "set": an assignment to
// x.F, or &x.F, counts as a write to every option field named F, whatever
// x is, and so does a keyed element F of a composite literal whose type is
// elided.
func TestEveryOptionIsSet(t *testing.T) {
	fset, files := parseProgram(t)

	options := make(map[string][]string) // "internal/core.Optimizer" -> every field in order, "" when embedded
	byName := make(map[string][]string)  // field name -> "internal/core.Optimizer.Epsilon", ...
	fieldPos := make(map[string]token.Pos)
	consts := make(map[string]bool) // "internal/lp.IterationLimit", ... package-level constants
	for _, sf := range files {
		for _, d := range sf.f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					if gd.Tok == token.CONST {
						for _, n := range spec.Names {
							consts[sf.pkg+"."+n.Name] = true
						}
					}
				case *ast.TypeSpec:
					st, ok := spec.Type.(*ast.StructType)
					if !ok || !isOptionType(sf.pkg, spec.Name.Name) {
						continue
					}
					typ := sf.pkg + "." + spec.Name.Name
					var fields []string
					for _, fl := range st.Fields.List {
						if len(fl.Names) == 0 {
							fields = append(fields, "")
						}
						for _, n := range fl.Names {
							fields = append(fields, n.Name)
							if n.IsExported() {
								byName[n.Name] = append(byName[n.Name], typ+"."+n.Name)
								fieldPos[typ+"."+n.Name] = n.Pos()
							}
						}
					}
					options[typ] = fields
				}
			}
		}
	}

	set := make(map[string]bool)
	for _, sf := range files {
		imports := importNames(sf.f)
		// isConst reports whether e is built from literals and constants
		// only; a selector into a package outside the module counts as a
		// constant (time.Second).
		var isConst func(ast.Expr) bool
		isConst = func(e ast.Expr) bool {
			switch e := e.(type) {
			case *ast.BasicLit:
				return true
			case *ast.Ident:
				return e.Name == "true" || e.Name == "false" || e.Name == "nil" || consts[sf.pkg+"."+e.Name]
			case *ast.SelectorExpr:
				x, ok := e.X.(*ast.Ident)
				if !ok {
					return false
				}
				dir, ok := imports[x.Name]
				return ok && (dir == "" || consts[dir+"."+e.Sel.Name])
			case *ast.ParenExpr:
				return isConst(e.X)
			case *ast.UnaryExpr:
				return e.Op != token.AND && isConst(e.X)
			case *ast.BinaryExpr:
				return isConst(e.X) && isConst(e.Y)
			case *ast.CompositeLit:
				for _, elt := range e.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						elt = kv.Value
					}
					if !isConst(elt) {
						return false
					}
				}
				return true
			}
			return false
		}
		// litType names a composite literal's struct type, "" when it is
		// elided or not a named type of the module.
		litType := func(e ast.Expr) string {
			switch e := e.(type) {
			case *ast.Ident:
				return sf.pkg + "." + e.Name
			case *ast.SelectorExpr:
				if x, ok := e.X.(*ast.Ident); ok && imports[x.Name] != "" {
					return imports[x.Name] + "." + e.Sel.Name
				}
			}
			return ""
		}
		// write records that key is given value (nil when not one
		// expression, as in x.F += 1). A constant written inside the
		// field's own package is its default, not a caller's choice.
		write := func(key string, value ast.Expr) {
			if !strings.HasPrefix(key, sf.pkg+".") || value == nil || !isConst(value) {
				set[key] = true
			}
		}
		writeNamed := func(name string, value ast.Expr) {
			for _, key := range byName[name] {
				write(key, value)
			}
		}
		ast.Inspect(sf.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					var value ast.Expr
					if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
						value = n.Rhs[i]
					}
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						writeNamed(sel.Sel.Name, value)
					}
				}
			case *ast.IncDecStmt:
				if sel, ok := n.X.(*ast.SelectorExpr); ok {
					writeNamed(sel.Sel.Name, nil)
				}
			case *ast.UnaryExpr:
				if sel, ok := n.X.(*ast.SelectorExpr); ok && n.Op == token.AND {
					writeNamed(sel.Sel.Name, nil)
				}
			case *ast.CompositeLit:
				typ := litType(n.Type)
				fields, ok := options[typ]
				if !ok && n.Type != nil {
					return true
				}
				for i, elt := range n.Elts {
					kv, keyed := elt.(*ast.KeyValueExpr)
					if !keyed {
						if i < len(fields) {
							write(typ+"."+fields[i], elt)
						}
						continue
					}
					if k, isIdent := kv.Key.(*ast.Ident); isIdent && ok {
						write(typ+"."+k.Name, kv.Value)
					} else if isIdent {
						writeNamed(k.Name, kv.Value)
					}
				}
			}
			return true
		})
	}

	var unset []string
	for key, pos := range fieldPos {
		short := strings.TrimPrefix(key, "internal/")
		_, excepted := optionExceptions[short]
		switch {
		case excepted && set[key]:
			t.Errorf("optionExceptions lists %s, which program code now sets: drop the entry", short)
		case !excepted && !set[key]:
			unset = append(unset, fset.Position(pos).String()+": "+short)
		}
	}
	for short := range optionExceptions {
		if _, ok := fieldPos["internal/"+short]; !ok {
			t.Errorf("optionExceptions lists %s, which is not an option field: drop the entry", short)
		}
	}
	sort.Strings(unset)
	for _, s := range unset {
		t.Errorf("%s is never set by program code, or only to a constant in its own package: make it a constant", s)
	}
}

// isOptionType reports whether the struct type name declared in package
// directory pkg is one the option check covers.
func isOptionType(pkg, name string) bool {
	if pkg == "internal/core" && name == "Optimizer" {
		return true
	}
	return strings.HasPrefix(pkg, "internal/") && ast.IsExported(name) &&
		(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options"))
}

// importNames maps each of f's import names to the imported package's
// directory relative to the module root, or to "" for a package outside
// the module.
func importNames(f *ast.File) map[string]string {
	m := importDirs(f)
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil || path == "prete" || strings.HasPrefix(path, "prete/") {
			continue
		}
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		m[name] = ""
	}
	return m
}

package prete

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"testing"
)

// fieldExceptions lists the struct fields under internal/ that program code
// writes and never reads on purpose, each with the reason. Keys are
// "pkg.Type.Field", pkg being the directory under internal/. An entry is
// only for a test oracle, a map-key struct, or a record the facade hands to
// callers. An entry whose field is gone or gains a program reader fails the
// test.
var fieldExceptions = map[string]string{
	"core.Result.LB":                 "oracle: tests check the Benders lower bound against the monolithic MIP",
	"core.Result.UB":                 "oracle: tests check the Benders upper bound against the monolithic MIP",
	"ml.oracleKey.degree":            "map key: the oracle's outcomes are keyed by fiber, degree and hour",
	"ml.oracleKey.hour":              "map key: the oracle's outcomes are keyed by fiber, degree and hour",
	"optical.Sample.RxDBm":           "public record: the telemetry sample the examples fill and callers stream in",
	"persist.RecoveryStats.TornTail": "oracle: crash-point tests check which recoveries cut a torn tail",
	"stats.ChiSquareResult.DF":       "oracle: goodness-of-fit tests check the degrees of freedom",
	"wan.SiteStatus.LeaseGen":        "oracle: fencing tests read the lease generation a site last saw",
}

// TestEveryFieldIsRead parses every non-test Go file in the tree (root,
// internal/, cmd/, examples/ and bench/) and fails on each field of a
// struct declared under internal/ that program code never reads. Such a
// field is state the program keeps for nobody: delete it with whatever
// fills it.
//
// A read is a selector x.F that is not written. The target of =, := or
// ++/-- is a write (after stripping index expressions, so x.F[k] = v
// writes F), and so is the first argument of x.F = append(x.F, ...); the
// keys of a composite literal are writes too. The check reads syntax only,
// so it errs towards "read": a read of x.F counts for every field named F,
// whatever x is.
func TestEveryFieldIsRead(t *testing.T) {
	fset, files := parseProgram(t)

	fieldPos := make(map[string]token.Pos) // "internal/wan.SiteStatus.Applied" -> declaration
	for _, sf := range files {
		if !strings.HasPrefix(sf.pkg, "internal/") {
			continue
		}
		for _, d := range sf.f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, fl := range st.Fields.List {
					for _, n := range fl.Names {
						if n.Name == "_" {
							continue
						}
						key := sf.pkg + "." + ts.Name.Name + "." + n.Name
						fieldPos[key] = n.Pos()
					}
				}
			}
		}
	}

	read := make(map[string]bool) // field names some program code reads
	for _, sf := range files {
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
		ast.Inspect(sf.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
					return true
				}
				for i, lhs := range n.Lhs {
					sel := target(lhs)
					if sel == nil {
						continue
					}
					written[sel] = true
					if len(n.Lhs) != len(n.Rhs) {
						continue
					}
					// x.F = append(x.F, ...) only writes F.
					if call, ok := n.Rhs[i].(*ast.CallExpr); ok && len(call.Args) > 0 {
						fn, _ := call.Fun.(*ast.Ident)
						if arg := target(call.Args[0]); fn != nil && fn.Name == "append" && arg != nil && arg.Sel.Name == sel.Sel.Name {
							written[arg] = true
						}
					}
				}
			case *ast.IncDecStmt:
				if sel := target(n.X); sel != nil {
					written[sel] = true
				}
			case *ast.SelectorExpr:
				if !written[n] {
					read[n.Sel.Name] = true
				}
			}
			return true
		})
	}

	var unread []string
	for key, pos := range fieldPos {
		short := strings.TrimPrefix(key, "internal/")
		name := key[strings.LastIndex(key, ".")+1:]
		_, excepted := fieldExceptions[short]
		switch {
		case excepted && read[name]:
			t.Errorf("fieldExceptions lists %s, which program code now reads: drop the entry", short)
		case !excepted && !read[name]:
			unread = append(unread, fset.Position(pos).String()+": "+short)
		}
	}
	for short := range fieldExceptions {
		if _, ok := fieldPos["internal/"+short]; !ok {
			t.Errorf("fieldExceptions lists %s, which is not a struct field: drop the entry", short)
		}
	}
	sort.Strings(unread)
	for _, s := range unread {
		t.Errorf("%s is never read by program code: delete it with what fills it", s)
	}
}

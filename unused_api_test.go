package memstream

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unusedAllowed lists the exported identifiers and methods under
// internal/ that no production code refers to, each with the reason it
// stays: the ROADMAP item that gives it a caller, or the test that uses
// it as an oracle. Anything else without a caller is deleted, or moves
// into the _test.go of the one package whose tests use it. An entry that
// gains a production referent, or whose identifier is gone, fails the
// test too, so the list only ever names real survivors.
var unusedAllowed = map[string]string{
	"internal/allocgate.Check":         "test support: the 0-allocs/op gate ten packages' tests run; production code never does",
	"internal/bank.BufferBank.Detach":  "stream churn in TestLiveRingsNeverIntersectProperty; ROADMAP item 3's live staging detaches ended streams",
	"internal/device.IOSizeFor":        "inverse of EffectiveThroughput (Fig 2); ROADMAP item 14 turns its IO sizes into predicates",
	"internal/device.Utilization":      "Fig 2's utilization curve in closed form; ROADMAP item 14's conformance bounds",
	"internal/mems.Device.FailTips":    "tip failures on one sled; ROADMAP item 23's degraded bank drives it",
	"internal/mems.Device.FailedTips":  "the failed-tip count beside FailTips; ROADMAP item 23",
	"internal/metrics.Snapshot.Merge":  "folds histogram snapshots; ROADMAP item 5 merges shard and partition margins with it",
	"internal/model.EffectiveBankSpec": "Corollaries 2-4 as one device spec; ROADMAP item 19's Scaling relation gives it a caller",
	"internal/model.MEMSDirect":        "Corollary 1 (MEMS as the only store); the oracle of TestStripedK1EqualsMEMSDirectProperty",
	"internal/units.B":                 "the base of the byte-size ladder (B, KB, MB, GB, TB)",
	"internal/units.BPS":               "the base of the byte-rate ladder (BPS, KBPS, MBPS)",
}

// TestNoUnusedExportedAPI finds dead API with go/parser alone: every
// exported package-level identifier declared in a non-test file under
// internal/ needs a referent in some non-test file of the module — its
// own package (outside its own declaration), or another package through
// the import. So does every exported method of a named type there, and
// every exported method of a named interface: some non-test file must
// select a field or method of that name (x.Name) outside the method's own
// declaration. References are matched by name, without type-checking, so
// the test can miss dead code (a local, a field or another type's method
// of the same name counts as a use) but never reports live code as dead.
func TestNoUnusedExportedAPI(t *testing.T) {
	const module = "memstream"
	fset := token.NewFileSet()

	type decl struct {
		pkg, name string
		pos, end  token.Pos
	}
	var decls []decl
	local := map[string][]token.Pos{}    // "pkg.name" → positions of bare uses in pkg
	remote := map[string]bool{}          // "pkg.name" used through an import
	selected := map[string][]token.Pos{} // "name" → positions of x.name, x not an import

	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != "." && (strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := path.Join(module, filepath.ToSlash(filepath.Dir(p)))
		imports := map[string]string{}
		for _, im := range f.Imports {
			ip := strings.Trim(im.Path.Value, `"`)
			name := path.Base(ip)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = ip
		}
		if strings.HasPrefix(p, "internal"+string(filepath.Separator)) {
			for _, dd := range f.Decls {
				switch dd := dd.(type) {
				case *ast.FuncDecl:
					switch {
					case !dd.Name.IsExported():
					case dd.Recv == nil:
						decls = append(decls, decl{pkg, dd.Name.Name, dd.Pos(), dd.End()})
					case !stdlibCalls[dd.Name.Name]:
						decls = append(decls, decl{pkg, recvName(dd.Recv.List[0].Type) + "." + dd.Name.Name, dd.Pos(), dd.End()})
					}
				case *ast.GenDecl:
					for _, s := range dd.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								decls = append(decls, decl{pkg, s.Name.Name, s.Pos(), s.End()})
							}
							if it, ok := s.Type.(*ast.InterfaceType); ok {
								for _, m := range it.Methods.List {
									for _, n := range m.Names {
										if n.IsExported() && !stdlibCalls[n.Name] {
											decls = append(decls, decl{pkg, s.Name.Name + "." + n.Name, m.Pos(), m.End()})
										}
									}
								}
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() {
									decls = append(decls, decl{pkg, n.Name, s.Pos(), s.End()})
								}
							}
						}
					}
				}
			}
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ImportSpec:
				return false
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					remote[imports[x.Name]+"."+n.Sel.Name] = true
					return false
				}
				selected[n.Sel.Name] = append(selected[n.Sel.Name], n.Sel.Pos()) // a field or method
				ast.Inspect(n.X, visit)
				return false
			case *ast.FuncDecl: // the name declares, the receiver is not a use
				ast.Inspect(n.Type, visit)
				if n.Body != nil {
					ast.Inspect(n.Body, visit)
				}
				return false
			case *ast.Field: // names declare
				ast.Inspect(n.Type, visit)
				return false
			case *ast.KeyValueExpr: // a bare key is a field name
				if _, ok := n.Key.(*ast.Ident); !ok {
					ast.Inspect(n.Key, visit)
				}
				ast.Inspect(n.Value, visit)
				return false
			case *ast.Ident:
				local[pkg+"."+n.Name] = append(local[pkg+"."+n.Name], n.Pos())
			}
			return true
		}
		for _, dd := range f.Decls {
			ast.Inspect(dd, visit)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var unused []string
	for _, d := range decls {
		id := d.pkg + "." + d.name
		uses := local[id]
		if _, method, ok := strings.Cut(d.name, "."); ok { // Type.Method
			uses = selected[method]
		}
		used := remote[id]
		for _, p := range uses {
			used = used || p < d.pos || p >= d.end
		}
		if !used {
			unused = append(unused, strings.TrimPrefix(id, module+"/"))
		}
	}
	sort.Strings(unused)
	found := map[string]bool{}
	for _, id := range unused {
		found[id] = true
		if unusedAllowed[id] == "" {
			t.Errorf("%s is exported but no production code refers to it: use it, unexport or delete it, or allow-list it with a reason", id)
		}
	}
	for id := range unusedAllowed {
		if !found[id] {
			t.Errorf("allow-listed %s has a production referent now, or no longer exists: drop it from the list", id)
		}
	}
	t.Logf("%d exported identifiers under internal/, %d without a production referent: %v", len(decls), len(unused), unused)
}

// stdlibCalls names the exported methods the standard library calls
// through one of its interfaces, so a type may need one that no module
// file selects by name. The gate does not check them.
var stdlibCalls = map[string]bool{
	"Error":  true, // error: fmt and errors.Is/As call it
	"String": true, // fmt.Stringer: %v and %s print through it
	"Len":    true, // sort.Interface and heap.Interface
	"Less":   true, // sort.Interface and heap.Interface
	"Swap":   true, // sort.Interface and heap.Interface
	"Push":   true, // heap.Interface: container/heap calls it
	"Pop":    true, // heap.Interface: container/heap calls it
}

// recvName is the type a method receiver names: T for T, *T, T[P] or *T[P].
func recvName(e ast.Expr) string {
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
			return ""
		}
	}
}

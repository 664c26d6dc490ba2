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

// unusedAllowed lists the exported identifiers under internal/ that no
// production code refers to, each with the reason it stays. An entry
// that gains a production referent, or whose identifier is gone, fails
// the test too, so the list only ever names real survivors.
var unusedAllowed = map[string]string{
	"internal/cache.NewLRU":                "the online LRU baseline the cache tests compare the paper's static placement against",
	"internal/cache.Update":                "the paper's off-line cache refresh between placements; no experiment re-places yet",
	"internal/device.IOSizeFor":            "inverse of EffectiveThroughput (Fig 2), pinned by its own round-trip test",
	"internal/device.Utilization":          "Fig 2's utilization curve in closed form, tested beside EffectiveThroughput",
	"internal/dram.NewPool":                "internal/dram has no importers; deleting it waits on a PR whose only test removals are its tests (ROADMAP item 2)",
	"internal/experiments.CurrentTier":     "read side of the SetTier package global that ROADMAP item 9 replaces with suite options",
	"internal/model.CostWithCache":         "Eq 9 in closed form; the cost figures price through model plans instead",
	"internal/model.EffectiveBankSpec":     "Corollaries 2-4 as one device spec, the bank-level property ROADMAP item 14 checks",
	"internal/model.MEMSDirect":            "Corollary 1 (MEMS as the only store), tested; no figure plots it",
	"internal/schedule.Admission":          "Theorem 1 admission for one rate; memserve admits through MixedAdmission, ROADMAP item 8 unifies them",
	"internal/shard.MillionStreams":        "the headline scaling scenario's plan, run by the shard tests",
	"internal/sim.Stats":                   "running moments used by the sim and disk tests only",
	"internal/trace.FromCompletion":        "builds a trace event from a completion; memsim records the requests it generates instead",
	"internal/trace.ReadBinary":            "binary half of the trace codec, round-trip tested and fuzzed",
	"internal/trace.WriteBinary":           "binary half of the trace codec, round-trip tested and fuzzed",
	"internal/units.B":                     "the base of the byte-size ladder (B, KB, MB, GB, TB)",
	"internal/units.BPS":                   "the base of the byte-rate ladder (BPS, KBPS, MBPS)",
	"internal/workload.Classes":            "the paper's media classes in rate order, used by the workload tests",
	"internal/workload.PaperDistributions": "the five popularity points of Figs 9-10; the figures build their own sweep",
	"internal/workload.ReplayAdmission":    "one-shot wrapper over Replay, kept for the departure-heap oracle test and its benchmark",
}

// TestNoUnusedExportedAPI finds dead API with go/parser alone: every
// exported package-level identifier declared in a non-test file under
// internal/ needs a referent in some non-test file of the module — its
// own package (outside its own declaration), or another package through
// the import. References are matched by name, without type-checking, so
// the test can miss dead code (a local or a field of the same name counts
// as a use) but never reports live code as dead.
func TestNoUnusedExportedAPI(t *testing.T) {
	const module = "memstream"
	fset := token.NewFileSet()

	type decl struct {
		pkg, name string
		pos, end  token.Pos
	}
	var decls []decl
	local := map[string][]token.Pos{} // "pkg.name" → positions of bare uses in pkg
	remote := map[string]bool{}       // "pkg.name" used through an import

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
					if dd.Recv == nil && dd.Name.IsExported() {
						decls = append(decls, decl{pkg, dd.Name.Name, dd.Pos(), dd.End()})
					}
				case *ast.GenDecl:
					for _, s := range dd.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								decls = append(decls, decl{pkg, s.Name.Name, s.Pos(), s.End()})
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
				ast.Inspect(n.X, visit) // n.Sel is a field or method
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
		used := remote[id]
		for _, p := range local[id] {
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

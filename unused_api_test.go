package memstream

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
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
	"internal/allocgate.Check":         "test support: the 0-allocs/op gate eleven packages' tests run; production code never does",
	"internal/bank.BufferBank.Detach":  "stream churn in TestLiveRingsNeverIntersectProperty; ROADMAP item 3's live staging detaches ended streams",
	"internal/device.IOSizeFor":        "inverse of EffectiveThroughput (Fig 2); ROADMAP item 14 turns its IO sizes into predicates",
	"internal/device.Utilization":      "Fig 2's utilization curve in closed form; ROADMAP item 14's conformance bounds",
	"internal/mems.Device.FailTips":    "tip failures on one sled; ROADMAP item 23's degraded bank drives it",
	"internal/mems.Device.FailedTips":  "the failed-tip count beside FailTips; ROADMAP item 23",
	"internal/metrics.Snapshot.Merge":  "folds histogram snapshots; ROADMAP item 5 merges shard and partition margins with it",
	"internal/model.EffectiveBankSpec": "Corollaries 2-4 as one device spec; ROADMAP item 19's Scaling relation gives it a caller",
	"internal/model.MEMSDirect":        "Corollary 1 (MEMS as the only store); the oracle of TestStripedK1EqualsMEMSDirectProperty",
	"internal/sim.Engine.Pending":      "calendar depth; internal/server's TestCalendarStaysShallow holds every cycle mode to loops + 2 with it",
	"internal/sim.Reservoir.N":         "samples observed; internal/server's cached cycle-walk benchmark warms until the margins reservoir is full",
	"internal/units.B":                 "the base of the byte-size ladder (B, KB, MB, GB, TB)",
	"internal/units.BPS":               "the base of the byte-rate ladder (BPS, KBPS, MBPS)",
}

// stdlibInterfaces names the standard-library interfaces whose methods
// the standard library calls on a module type no module file selects them
// on: fmt and errors print and unwrap through String and Error, and
// container/heap orders through its Interface (sort.Interface's methods
// and Push and Pop). A method of a module type that implements one of
// these stays live under that interface's method names. An interface
// joins the list when a type under internal/ implements it; the gate
// fails on that type's methods until then.
var stdlibInterfaces = []struct{ pkg, name string }{
	{"", "error"},
	{"fmt", "Stringer"},
	{"container/heap", "Interface"},
}

// TestNoUnusedExportedAPI type-checks every non-test package of the module
// from source (the standard library through its export data) and fails on
// an exported package-level identifier or method declared in a non-test
// file under internal/ that no non-test file of the module uses outside
// its own declaration. A method of a named type is used when it is
// selected on that type (a generic type's instances count for it), or when
// the type implements an interface whose method of that name is used,
// whether a module interface or one of stdlibInterfaces. A method of a
// named interface is used when it is selected on that interface. Uses
// resolve to objects, so a field, a local or another type's method of the
// same name is no use.
func TestNoUnusedExportedAPI(t *testing.T) {
	const module = "memstream"
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", nil)
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	pkgs := map[string]*types.Package{}
	files := map[string][]*ast.File{}

	var load func(ip string) (*types.Package, error)
	conf := types.Config{Importer: importerFunc(func(ip string) (*types.Package, error) {
		if inModule(ip) {
			return load(ip)
		}
		return std.Import(ip)
	})}
	load = func(ip string) (*types.Package, error) {
		if p, ok := pkgs[ip]; ok {
			return p, nil
		}
		dir := "." + strings.TrimPrefix(ip, module)
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			return nil, err
		}
		var fs []*ast.File
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			fs = append(fs, f)
		}
		p, err := conf.Check(ip, fset, fs, info)
		if err != nil {
			return nil, err
		}
		pkgs[ip], files[ip] = p, fs
		return p, nil
	}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if n := d.Name(); p != "." && (strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") || n == "testdata") {
			return filepath.SkipDir
		}
		_, err = load(path.Join(module, filepath.ToSlash(p)))
		if none := (*build.NoGoError)(nil); errors.As(err, &none) {
			return nil
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	// Every declaration under internal/ the gate checks, by object.
	type decl struct {
		id       string
		pos, end token.Pos
	}
	decls := map[types.Object]decl{}
	for ip, fs := range files {
		if !strings.HasPrefix(ip, module+"/internal/") {
			continue
		}
		id := strings.TrimPrefix(ip, module+"/") + "."
		for _, f := range fs {
			for _, dd := range f.Decls {
				switch dd := dd.(type) {
				case *ast.FuncDecl:
					if dd.Name.IsExported() {
						recv := ""
						if dd.Recv != nil {
							recv = recvName(dd.Recv.List[0].Type) + "."
						}
						decls[info.Defs[dd.Name]] = decl{id + recv + dd.Name.Name, dd.Pos(), dd.End()}
					}
				case *ast.GenDecl:
					for _, s := range dd.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								decls[info.Defs[s.Name]] = decl{id + s.Name.Name, s.Pos(), s.End()}
							}
							if it, ok := s.Type.(*ast.InterfaceType); ok {
								for _, m := range it.Methods.List {
									for _, n := range m.Names {
										if n.IsExported() {
											decls[info.Defs[n]] = decl{id + s.Name.Name + "." + n.Name, m.Pos(), m.End()}
										}
									}
								}
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() {
									decls[info.Defs[n]] = decl{id + n.Name, s.Pos(), s.End()}
								}
							}
						}
					}
				}
			}
		}
	}

	// Every use in a non-test file, by object. A method's receiver names
	// its type without using it.
	uses := map[types.Object][]token.Pos{}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			ast.Inspect(n.Type, visit)
			if n.Body != nil {
				ast.Inspect(n.Body, visit)
			}
			return false
		case *ast.Ident:
			if obj := info.Uses[n]; obj != nil {
				if fn, ok := obj.(*types.Func); ok {
					obj = fn.Origin()
				}
				uses[obj] = append(uses[obj], n.Pos())
			}
		}
		return true
	}
	for _, fs := range files {
		for _, f := range fs {
			ast.Inspect(f, visit)
		}
	}
	used := func(obj types.Object) bool {
		d := decls[obj]
		for _, p := range uses[obj] {
			if p < d.pos || p >= d.end {
				return true
			}
		}
		return false
	}

	// The interface methods a call may reach without naming the concrete
	// method: every used method of a module interface, and every method
	// of stdlibInterfaces.
	type ifaceMethod struct {
		iface *types.Interface
		name  string
	}
	var reach []ifaceMethod
	for obj := range uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil || !inModule(fn.Pkg().Path()) {
			continue
		}
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if it, ok := recv.Type().Underlying().(*types.Interface); ok && used(obj) {
				reach = append(reach, ifaceMethod{it, fn.Name()})
			}
		}
	}
	for _, si := range stdlibInterfaces {
		scope := types.Universe
		if si.pkg != "" {
			p, err := std.Import(si.pkg)
			if err != nil {
				t.Fatal(err)
			}
			scope = p.Scope()
		}
		it := scope.Lookup(si.name).Type().Underlying().(*types.Interface)
		for m := range it.NumMethods() {
			reach = append(reach, ifaceMethod{it, it.Method(m).Name()})
		}
	}
	viaIface := map[types.Object]bool{}
	for _, p := range pkgs {
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) || tn.Type().(*types.Named).TypeParams() != nil {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			for _, r := range reach {
				if types.Implements(ptr, r.iface) {
					m, _, _ := types.LookupFieldOrMethod(ptr, false, nil, r.name)
					if fn, ok := m.(*types.Func); ok {
						viaIface[fn.Origin()] = true
					}
				}
			}
		}
	}

	var unused []string
	for obj, d := range decls {
		if !used(obj) && !viaIface[obj] {
			unused = append(unused, d.id)
		}
	}
	sort.Strings(unused)
	found := map[string]bool{}
	for _, id := range unused {
		found[id] = true
		if unusedAllowed[id] == "" {
			t.Errorf("%s is exported but no production code uses it: use it, unexport or delete it, or allow-list it with a reason", id)
		}
	}
	for id := range unusedAllowed {
		if !found[id] {
			t.Errorf("allow-listed %s has a production use now, or no longer exists: drop it from the list", id)
		}
	}
	t.Logf("%d exported identifiers under internal/, %d without a production use: %v", len(decls), len(unused), unused)
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

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

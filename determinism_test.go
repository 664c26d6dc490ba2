package memstream

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// deterministicPackages are the packages a simulated result is computed
// in. Their output must be a function of the configuration and the seed
// alone, so they read no wall clock, draw from no RNG but sim.RNG and
// start no goroutine whose scheduling could order their work.
var deterministicPackages = []string{
	"internal/server", "internal/model", "internal/bank", "internal/disk", "internal/mems",
	"internal/tier", "internal/schedule", "internal/workload", "internal/sim",
}

// goAllowed names the functions of deterministicPackages that may start
// goroutines, each with the reason its result does not depend on their
// scheduling.
var goAllowed = map[string]string{
	"internal/sim.FanOut": "the one worker pool: callers seed each job by its key and fold results in index order",
}

// TestDeterministicPackagesReadNoClockOrGlobalRNG parses every non-test
// file of deterministicPackages and fails on an import of math/rand, a
// use of time.Now or time.Since, and a go statement outside goAllowed.
// It reads the syntax tree, so a comment that names one of them is not a
// use.
func TestDeterministicPackagesReadNoClockOrGlobalRNG(t *testing.T) {
	fset := token.NewFileSet()
	usedAllow := map[string]bool{}
	for _, dir := range deterministicPackages {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		parsed := 0
		for _, p := range files {
			if strings.HasSuffix(p, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			parsed++
			file := filepath.ToSlash(p)
			timeName := ""
			for _, im := range f.Imports {
				imp, err := strconv.Unquote(im.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case imp == "math/rand" || strings.HasPrefix(imp, "math/rand/"):
					t.Errorf("%s imports %s: draw from sim.RNG, seeded from the run's seed", file, imp)
				case imp == "time":
					timeName = "time"
					if im.Name != nil {
						timeName = im.Name.Name
					}
				}
			}
			for _, decl := range f.Decls {
				fn := "" // a package-level var's initializer has no function
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
					fn = fd.Name.Name
				} else if ok {
					fn = "(method) " + fd.Name.Name
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.SelectorExpr:
						if x, ok := n.X.(*ast.Ident); ok && timeName != "" && x.Name == timeName &&
							(n.Sel.Name == "Now" || n.Sel.Name == "Since") {
							t.Errorf("%s:%d uses time.%s: simulated time comes from the engine's clock",
								file, fset.Position(n.Pos()).Line, n.Sel.Name)
						}
					case *ast.GoStmt:
						key := path.Dir(file) + "." + fn
						if goAllowed[key] == "" {
							t.Errorf("%s:%d starts a goroutine in %s: the order of its work is not fixed by the seed",
								file, fset.Position(n.Pos()).Line, key)
						}
						usedAllow[key] = true
					}
					return true
				})
			}
		}
		if parsed == 0 {
			t.Errorf("%s has no non-test Go file: update deterministicPackages", dir)
		}
	}
	for key := range goAllowed {
		if !usedAllow[key] {
			t.Errorf("goAllowed names %s, which starts no goroutine: delete its entry", key)
		}
	}
}

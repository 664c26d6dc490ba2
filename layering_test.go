package memstream

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// layerRules pins the module's layering. Each rule sees one import of
// one non-test file (its slash path from the repo root, and the import
// path) and returns why that import is not allowed, or "".
var layerRules = []func(file, imp string) string{
	func(file, imp string) string {
		if imp == "memstream/internal/mems" && path.Dir(file) != "internal/tier" {
			return "only internal/tier may import internal/mems: every other layer reaches a device through tier.Device"
		}
		return ""
	},
	func(file, imp string) string {
		dir := path.Dir(file)
		if imp == "memstream/internal/server" && (dir == "internal/serve" || dir == "cmd/memserve" || dir == "cmd/memsload") {
			return "the live server and its tools never import the DES server"
		}
		return ""
	},
	func(file, imp string) string {
		if path.Dir(file) == "bench" && inModule(imp) && file != "bench/adapter_sim.go" && file != "bench/adapter_serve.go" {
			return "bench reaches the module only through adapter_sim.go and adapter_serve.go"
		}
		return ""
	},
	func(file, imp string) string {
		if path.Dir(file) == "internal/wheel" && (inModule(imp) || imp == "sync" || strings.HasPrefix(imp, "sync/")) {
			return "internal/wheel is a leaf with no lock: its caller serializes every call"
		}
		return ""
	},
}

func inModule(imp string) bool { return imp == "memstream" || strings.HasPrefix(imp, "memstream/") }

// TestLayering reads every non-test file's imports with go/parser and
// checks them against layerRules. The imports the rules allow must also
// be seen, so that a moved package or a renamed adapter cannot leave a
// rule with nothing to check.
func TestLayering(t *testing.T) {
	fset := token.NewFileSet()
	seen := map[string]bool{}
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
		f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		file := filepath.ToSlash(p)
		seen[path.Dir(file)] = true
		for _, im := range f.Imports {
			imp, err := strconv.Unquote(im.Path.Value)
			if err != nil {
				return err
			}
			seen[file+" "+imp] = true
			for _, rule := range layerRules {
				if why := rule(file, imp); why != "" {
					t.Errorf("%s imports %s: %s", file, imp, why)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"internal/tier/memsdev.go memstream/internal/mems",
		"bench/adapter_sim.go memstream/internal/sim",
		"bench/adapter_serve.go memstream/internal/wheel",
		"internal/serve",
		"cmd/memserve",
		"cmd/memsload",
		"internal/wheel",
	} {
		if !seen[want] {
			t.Errorf("%s not seen: a layering rule has nothing to check; update layerRules", want)
		}
	}
}

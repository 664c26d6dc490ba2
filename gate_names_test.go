package memstream

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// gateFiles are the files that run go test with -run, -bench or -fuzz
// patterns.
var gateFiles = []string{".github/workflows/ci.yml", "Makefile"}

// makeCall matches a make variable or function call, such as $(GO) or
// $(or $(BENCH_COUNT),1).
var makeCall = regexp.MustCompile(`\$\((?:[^()]|\([^()]*\))*\)`)

// testFuncs returns the names of the Test, Benchmark and Fuzz functions
// declared in the _test.go files of the package directory dir, or of
// every package under it when recursive.
func testFuncs(t *testing.T, dir string, recursive bool) []string {
	t.Helper()
	var names []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != dir && (!recursive || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				names = append(names, fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestGatesNameRealTests holds every -run, -bench and -fuzz pattern that
// ci.yml and the Makefile pass to go test to the packages the same line
// names: each alternative of the pattern must match a Test, Benchmark or
// Fuzz function there. go test passes a pattern that matches nothing with
// "no tests to run", so a renamed test would otherwise leave its gate
// unseen. The pattern '^$' (run nothing) is exempt.
func TestGatesNameRealTests(t *testing.T) {
	checked := map[string]int{}
	for _, file := range gateFiles {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		if file == "Makefile" {
			text = makeCall.ReplaceAllStringFunc(strings.ReplaceAll(text, "$$", "$"), func(call string) string {
				if call == "$(GO)" {
					return "go"
				}
				return "make-value"
			})
		}
		lines := strings.Split(text, "\n")
		for i := 0; i < len(lines); i++ {
			lineNo, line := i+1, lines[i]
			for strings.HasSuffix(line, `\`) && i+1 < len(lines) {
				i++
				line = strings.TrimSuffix(line, `\`) + " " + lines[i]
			}
			for _, words := range shellSegments(line) {
				for k := 1; k < len(words); k++ {
					if words[k-1] == "go" && words[k] == "test" {
						checkGoTest(t, fmt.Sprintf("%s:%d", file, lineNo), words[k+1:], checked)
						break
					}
				}
			}
		}
	}
	for flag := range patternKinds {
		if checked[flag] == 0 {
			t.Errorf("no %s pattern was found in %v: the scan has gone blind", flag, gateFiles)
		}
	}
}

// patternKinds maps each go test flag that takes a name pattern to the
// prefix of the functions it selects.
var patternKinds = map[string]string{"-run": "Test", "-bench": "Benchmark", "-fuzz": "Fuzz"}

// checkGoTest checks the -run, -bench and -fuzz patterns of one go test
// command, args being its words after "go test", and counts each checked
// alternative in checked.
func checkGoTest(t *testing.T, where string, args []string, checked map[string]int) {
	t.Helper()
	patterns := map[string][]string{}
	var pkgs []string
	for k, arg := range args {
		flag, val, ok := strings.Cut(arg, "=")
		if !ok && k+1 < len(args) {
			val = args[k+1]
		}
		if patternKinds[flag] != "" {
			patterns[flag] = append(patterns[flag], val)
		}
		if strings.HasPrefix(arg, "./") {
			pkgs = append(pkgs, arg)
		}
	}
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}
	var funcs []string
	for _, pkg := range pkgs {
		dir, recursive := strings.CutSuffix(pkg, "/...")
		funcs = append(funcs, testFuncs(t, dir, recursive)...)
	}
	for flag, vals := range patterns {
		for _, val := range vals {
			// The top level of a -run or -bench pattern is what precedes
			// its first slash.
			top, _, _ := strings.Cut(val, "/")
			for _, alt := range strings.Split(top, "|") {
				if alt == "^$" {
					continue
				}
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%s: %s %q: %v", where, flag, alt, err)
					continue
				}
				checked[flag]++
				found := false
				for _, name := range funcs {
					found = found || strings.HasPrefix(name, patternKinds[flag]) && re.MatchString(name)
				}
				if !found {
					t.Errorf("%s: %s %q matches no %s function in %s", where, flag, alt, patternKinds[flag], strings.Join(pkgs, " "))
				}
			}
		}
	}
}

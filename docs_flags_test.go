package memstream

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docsWithCommands are the files whose command lines must name only real
// commands and real flags.
var docsWithCommands = []string{
	"README.md", "EXPERIMENTS.md", "DESIGN.md", "Makefile",
	".github/workflows/ci.yml", "scripts/*.sh", ".claude/skills/verify/SKILL.md",
}

// commandFlags parses cmd/<name>/*.go (tests excluded) and returns the
// flag names each command defines through flag.X/flag.XVar or fs.X/fs.XVar.
func commandFlags(t *testing.T) map[string]map[string]bool {
	t.Helper()
	dirs, err := filepath.Glob("cmd/*")
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]bool{
		"Bool": true, "BoolFunc": true, "Duration": true, "Float64": true, "Func": true,
		"Int": true, "Int64": true, "String": true, "Uint": true, "Uint64": true,
	}
	cmds := map[string]map[string]bool{}
	fset := token.NewFileSet()
	for _, dir := range dirs {
		files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		flags := map[string]bool{"h": true, "help": true} // the flag package's own
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); !ok || (x.Name != "flag" && x.Name != "fs") {
					return true
				}
				arg := -1
				switch {
				case strings.HasSuffix(sel.Sel.Name, "Var"):
					arg = 1
				case byName[sel.Sel.Name]:
					arg = 0
				}
				if arg < 0 || len(call.Args) <= arg {
					return true
				}
				if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					flags[name] = true
				}
				return true
			})
		}
		cmds[filepath.Base(dir)] = flags
	}
	return cmds
}

// shellSegments splits one (continuation-joined) doc line into the word
// lists of its command segments: backticks, pipes, semicolons, ampersands,
// parentheses, a word of only '#' and a word starting with '>' end a
// segment. Double quotes are dropped; a single quote at the start of a
// word quotes up to the next one, so regexps like 'a|b' stay one word.
func shellSegments(line string) [][]string {
	var segs [][]string
	var words []string
	var w strings.Builder
	endWord := func() {
		s := strings.Trim(w.String(), "[]")
		w.Reset()
		switch {
		case s == "":
		case strings.Trim(s, "#") == "" || strings.HasPrefix(s, ">"):
			segs, words = append(segs, words), nil
		default:
			words = append(words, s)
		}
	}
	line = strings.ReplaceAll(line, `"`, "")
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case c == '\'' && (w.Len() == 0 || strings.HasSuffix(w.String(), "=")):
			j := strings.IndexByte(line[i+1:], '\'')
			if j < 0 {
				j = len(line) - i - 1
			}
			w.WriteString(line[i+1 : i+1+j])
			i += j + 1
		case c == ' ' || c == '\t':
			endWord()
		case strings.IndexByte("`|;&()", c) >= 0:
			endWord()
			segs, words = append(segs, words), nil
		default:
			w.WriteByte(c)
		}
	}
	endWord()
	return append(segs, words)
}

var (
	goRunTarget = regexp.MustCompile(`^(\./)?cmd/([A-Za-z0-9_.-]+)/?$`)
	flagWord    = regexp.MustCompile(`^--?([A-Za-z][A-Za-z0-9_-]*)(=.*)?$`)
)

// TestDocsNameOnlyRealFlags holds every documented invocation of a
// command under cmd/ — `go run ./cmd/<name> ...`, a built binary
// (`/tmp/<name> ...`, `"$BIN/<name>" ...`) or the bare name with flags —
// to the commands that exist and the flags each one defines, and every
// flag a command defines to at least one such command line: a flag no
// doc or script runs has no documented use.
func TestDocsNameOnlyRealFlags(t *testing.T) {
	cmds := commandFlags(t)
	var files []string
	for _, pat := range docsWithCommands {
		m, err := filepath.Glob(pat)
		if err != nil || len(m) == 0 {
			t.Fatalf("%s: no such file", pat)
		}
		files = append(files, m...)
	}
	checked := map[string]int{}
	named := map[string]map[string]bool{}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(data), "\n")
		for i := 0; i < len(lines); i++ {
			lineNo, line := i+1, lines[i]
			for strings.HasSuffix(strings.TrimRight(line, " \t"), `\`) && i+1 < len(lines) {
				i++
				line = strings.TrimSuffix(strings.TrimRight(line, " \t"), `\`) + " " + lines[i]
			}
			for _, words := range shellSegments(line) {
				for k, word := range words {
					name := ""
					if m := goRunTarget.FindStringSubmatch(word); m != nil && k > 0 && words[k-1] == "run" {
						name = m[2]
					} else if b := path.Base(word); cmds[b] != nil && (word == b || !strings.Contains(word, "cmd/")) &&
						(k == 0 || words[k-1] != "-o") {
						name = b
					}
					if name == "" {
						continue
					}
					flags := cmds[name]
					if flags == nil {
						t.Errorf("%s:%d: runs %q, but there is no cmd/%s", file, lineNo, word, name)
						break
					}
					for _, arg := range words[k+1:] {
						m := flagWord.FindStringSubmatch(arg)
						if m == nil {
							continue
						}
						checked[name]++
						if !flags[m[1]] {
							t.Errorf("%s:%d: %s has no flag -%s", file, lineNo, name, m[1])
						}
						if named[name] == nil {
							named[name] = map[string]bool{}
						}
						named[name][m[1]] = true
					}
					break
				}
			}
		}
	}
	for name, flags := range cmds {
		if checked[name] == 0 {
			t.Errorf("no documented flag of %s was found: the scan has gone blind", name)
			continue
		}
		for flag := range flags {
			if flag != "h" && flag != "help" && !named[name][flag] {
				t.Errorf("%s -%s is on no command line in %v: document a use or delete the flag",
					name, flag, docsWithCommands)
			}
		}
	}
}

// docLineCaps bounds the long-form docs. A change that needs more room
// cuts elsewhere, or raises a cap with a reason in CHANGES.md.
var docLineCaps = map[string]int{"EXPERIMENTS.md": 772, "DESIGN.md": 869, "README.md": 347}

// TestDocsStayUnderLineCaps holds each file in docLineCaps to its cap.
func TestDocsStayUnderLineCaps(t *testing.T) {
	for file, limit := range docLineCaps {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")); n > limit {
			t.Errorf("%s has %d lines, over its cap of %d", file, n, limit)
		}
	}
}

// artefactEntry matches a per-artefact entry of EXPERIMENTS.md: a
// "### <id> — <title>" heading (ids joined by " / ") or a
// "- **<id>** — <text>" bullet.
var artefactEntry = regexp.MustCompile(`^(?:### (.+?)|- \*\*([^*]+)\*\*) — `)

// TestExperimentsRecordEveryArtefact: EXPERIMENTS.md's per-artefact
// record has an entry for every registered experiment and names no id
// the registry lacks.
func TestExperimentsRecordEveryArtefact(t *testing.T) {
	raw, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	registered := map[string]bool{}
	for _, id := range Experiments() {
		registered[id] = true
	}
	recorded := map[string]bool{}
	inRecord := false
	for i, line := range lines {
		if strings.HasPrefix(line, "## ") {
			inRecord = line == "## Per-artifact record"
			continue
		}
		m := artefactEntry.FindStringSubmatch(line)
		if !inRecord || m == nil {
			continue
		}
		for _, id := range strings.Split(m[1]+m[2], " / ") {
			if !registered[id] {
				t.Errorf("EXPERIMENTS.md:%d: entry %q names no registered experiment", i+1, id)
			}
			recorded[id] = true
		}
	}
	for id := range registered {
		if !recorded[id] {
			t.Errorf("experiment %s has no entry in EXPERIMENTS.md's per-artefact record", id)
		}
	}
	if len(recorded) == 0 {
		t.Error("no per-artefact entry was found: the scan has gone blind")
	}
}

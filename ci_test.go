package flashdc

// The CI workflow names tests, fuzz targets and benchmarks by regular
// expression. A renamed or deleted function leaves such a step
// matching nothing, and `go test` passes an empty selection silently,
// so these tests check every name the workflow gives against the
// functions of the packages its step targets.

import (
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

// selectorFlags maps each `go test` flag that selects functions by name
// to the prefixes of the functions it can select.
var selectorFlags = map[string][]string{
	"-run":   {"Test", "Fuzz", "Example"},
	"-fuzz":  {"Fuzz"},
	"-bench": {"Benchmark"},
}

// valueFlags are the other `go test` flags the workflow passes that
// take a separate value.
var valueFlags = map[string]bool{
	"-count": true, "-cpu": true, "-benchtime": true, "-fuzztime": true,
	"-timeout": true, "-o": true, "-outputdir": true,
}

func TestCIWorkflowNamesExist(t *testing.T) {
	yml, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	checked, problems := ciNameProblems(string(yml), ".")
	for _, p := range problems {
		t.Error(p)
	}
	// Guard against a parser that stopped seeing the steps: the
	// workflow selects dozens of functions by name.
	if checked < 20 {
		t.Fatalf("checked only %d selected names in ci.yml; the step parser is broken", checked)
	}
}

// TestCIWorkflowNamesCheckerCatchesRenames feeds the checker a step
// naming a function that does not exist next to ones that do.
func TestCIWorkflowNamesCheckerCatchesRenames(t *testing.T) {
	yml := `      - name: one step
        run: go test -race -run 'TestCIWorkflowNamesExist|TestNoSuchFunction' .
      - name: two commands
        run: |
          go test -run '^$' -bench '^BenchmarkNoSuch$' -benchtime=1x . | tee out.json
          go test -run '^$' -fuzz FuzzBinaryRoundTrip -fuzztime 30s ./internal/trace/
`
	checked, problems := ciNameProblems(yml, ".")
	if checked != 4 {
		t.Errorf("checked %d names, want 4", checked)
	}
	want := []string{`-run "TestNoSuchFunction"`, `-bench "^BenchmarkNoSuch$"`}
	if len(problems) != len(want) {
		t.Fatalf("problems = %q, want %d naming %q", problems, len(want), want)
	}
	for i, w := range want {
		if !strings.Contains(problems[i], w) {
			t.Errorf("problem %q does not name %s", problems[i], w)
		}
	}
}

// ciNameProblems checks every `go test` command in the workflow text,
// with package paths relative to root. It returns how many selected
// names it checked and one message per name that matches no function.
func ciNameProblems(yml, root string) (checked int, problems []string) {
	for _, line := range strings.Split(yml, "\n") {
		line = strings.TrimSpace(line)
		line = strings.TrimPrefix(line, "run:")
		for _, cmd := range shellCommands(line) {
			if len(cmd) < 2 || cmd[0] != "go" || cmd[1] != "test" {
				continue
			}
			selectors, pkgs := parseGoTest(cmd[2:])
			if len(pkgs) == 0 {
				pkgs = []string{"."}
			}
			var funcs []string
			for _, pkg := range pkgs {
				names, err := testFuncs(root, pkg)
				if err != nil {
					problems = append(problems, err.Error())
				}
				funcs = append(funcs, names...)
			}
			for _, sel := range selectors {
				for _, alt := range alternatives(sel.pattern) {
					if alt == "^$" {
						continue // deliberately selects nothing
					}
					checked++
					if !anyMatch(alt, selectorFlags[sel.flag], funcs) {
						problems = append(problems, sel.flag+" "+`"`+alt+`"`+" in `"+strings.Join(cmd, " ")+
							"` matches no function in "+strings.Join(pkgs, " "))
					}
				}
			}
		}
	}
	return checked, problems
}

type selector struct{ flag, pattern string }

// parseGoTest splits the arguments of `go test` into its name
// selectors and its package paths.
func parseGoTest(args []string) (sels []selector, pkgs []string) {
	for i := 0; i < len(args); i++ {
		a := args[i]
		name, value, hasValue := strings.Cut(a, "=")
		switch {
		case selectorFlags[name] != nil:
			if !hasValue && i+1 < len(args) {
				i++
				value = args[i]
			}
			sels = append(sels, selector{name, value})
		case valueFlags[name] && !hasValue:
			i++
		case strings.HasPrefix(a, "."):
			pkgs = append(pkgs, a)
		}
	}
	return sels, pkgs
}

// shellCommands splits one shell line into commands at |, ||, && and
// ;, each a list of words with single or double quotes removed.
func shellCommands(line string) [][]string {
	var cmds [][]string
	var cmd []string
	var word strings.Builder
	inWord := false
	var quote rune
	flush := func() {
		if inWord {
			cmd = append(cmd, word.String())
			word.Reset()
			inWord = false
		}
	}
	for _, r := range line {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			word.WriteRune(r)
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			flush()
		case r == '|' || r == '&' || r == ';':
			flush()
			if len(cmd) > 0 {
				cmds = append(cmds, cmd)
				cmd = nil
			}
		default:
			word.WriteRune(r)
			inWord = true
		}
	}
	flush()
	if len(cmd) > 0 {
		cmds = append(cmds, cmd)
	}
	return cmds
}

// alternatives splits a selection pattern at its top-level |, keeping
// only the first /-separated element of each: `go test` matches that
// element against top-level function names and the rest against
// subtests.
func alternatives(pattern string) []string {
	var alts []string
	depth, start := 0, 0
	for i, r := range pattern {
		switch r {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|':
			if depth == 0 {
				alts = append(alts, pattern[start:i])
				start = i + 1
			}
		}
	}
	alts = append(alts, pattern[start:])
	for i, alt := range alts {
		alts[i], _, _ = strings.Cut(alt, "/")
	}
	return alts
}

// anyMatch reports whether pattern matches a function name with one of
// the prefixes. An invalid pattern matches nothing.
func anyMatch(pattern string, prefixes, funcs []string) bool {
	re, err := regexp.Compile(pattern)
	if err != nil {
		return false
	}
	for _, f := range funcs {
		for _, p := range prefixes {
			if strings.HasPrefix(f, p) && re.MatchString(f) {
				return true
			}
		}
	}
	return false
}

// testFuncs returns the top-level function names declared in the
// _test.go files of pkg, a directory under root or a dir/... pattern
// (which, like `go test`, stops at nested modules).
func testFuncs(root, pkg string) ([]string, error) {
	dir, recursive := strings.CutSuffix(pkg, "/...")
	dir = filepath.Join(root, dir)
	var names []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == dir {
				return nil
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); !recursive || err == nil ||
				strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
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
	return names, err
}

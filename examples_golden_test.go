package flashdc

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the example goldens in testdata/examples")

// TestExamplesGolden builds every program under examples/, runs it and
// compares its stdout byte for byte with testdata/examples/<name>.txt.
// The examples are the public API's end-to-end users and print only
// simulated numbers, so a refactor that moves any of them moves a
// result. A deliberate change rewrites the goldens with
//
//	go test . -run TestExamplesGolden -update
func TestExamplesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the goldens are pinned to amd64: on %s Go may fuse x*y+z into one FMA instruction, so simulated floats can differ", runtime.GOARCH)
	}
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	build := exec.Command(goTool, "build", "-o", bin+string(filepath.Separator), "./examples/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the examples: %v\n%s", err, out)
	}
	for _, e := range entries {
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			run := exec.Command(filepath.Join(bin, name))
			run.Stdout, run.Stderr = &stdout, &stderr
			if err := run.Run(); err != nil {
				t.Fatalf("%v\n%s", err, stderr.Bytes())
			}
			golden := filepath.Join("testdata", "examples", name+".txt")
			if *update {
				if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v; rerun with -update", err)
			}
			got, wl := strings.Split(stdout.String(), "\n"), strings.Split(string(want), "\n")
			for n := 0; n < max(len(got), len(wl)); n++ {
				if n >= len(got) || n >= len(wl) || got[n] != wl[n] {
					t.Fatalf("stdout differs from %s at line %d\n got: %s\nwant: %s", golden, n+1, lineOf(got, n), lineOf(wl, n))
				}
			}
		})
	}
}

func lineOf(lines []string, n int) string {
	if n >= len(lines) {
		return "(end of output)"
	}
	return lines[n]
}

package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"flashdc/internal/cmdtest"
)

var update = flag.Bool("update", false, "rewrite the golden matrix files in testdata")

// goldenMatrix is the determinism contract as nine fdcsim runs. Together
// they cover GC relocation, eviction, wear rotation, scrub migration,
// refresh rewrite, program and erase failures, the cache dying mid-run,
// unified mode, every policy and scheduler feedback. Seven of the nine
// end with exit 1 ("degraded service: flash tier dead"): the cache
// wears out, and that must match too.
var goldenMatrix = []string{
	"-workload WebSearch1 -flash 8M -dram 2M -requests 400000 -wear-accel 200000 -scrub 32 -faults read=2e-3,program=1e-3,erase=1e-3,grown=0.2,seed=7",
	"-workload alpha1 -flash 8M -dram 2M -requests 400000 -wear-accel 20000 -scrub 32 -retention-accel 1e6 -disturb-reads 1000 -channels 4 -banks 2 -wbuf 16 -scrub-feedback -policy-gc contention-aware -policy-admit throttle",
	"-workload alpha1 -flash 8M -dram 2M -requests 300000 -unified -wear-accel 100000 -scrub 16",
	"-workload alpha1 -flash 8M -dram 2M -requests 400000 -wear-accel 20000 -policy-evict cm-wear -policy-gc cost-benefit -policy-admit wlfc -scrub 32",
	"-workload WebSearch1 -flash 8M -dram 2M -requests 400000 -policy-gc cost-benefit -wear-accel 20000 -shards 2",
	"-workload alpha2 -flash 16M -dram 64K -requests 400000 -wear-accel 5000",
	"-workload dbt2",
	"-workload alpha1 -flash 8M -dram 2M -requests 300000 -no-programmable -wear-accel 20000 -scrub 32 -faults read=2e-3,program=1e-3,erase=1e-3,grown=0.2,seed=7",
	"-workload alpha1 -flash 8M -dram 2M -requests 400000 -wear-accel 20000 -scrub 32 -retention-accel 1e6 -disturb-reads 1000 -refresh-threshold 0.5 -faults read=2e-3,program=2e-3,erase=1e-3,grown=0.2,seed=3",
}

const (
	goldenStdoutFile  = "testdata/golden_matrix.txt"
	goldenDigestsFile = "testdata/golden_digests.txt"
)

// goldenArgs returns the full argument list of matrix line i: every
// run writes metrics and events, and a run without channels or shards
// also writes a checkpoint.
func goldenArgs(i int) []string {
	args := append(strings.Fields(goldenMatrix[i]), "-metrics-out", "m", "-metrics-interval", "1s", "-trace-events", "e")
	if !strings.Contains(goldenMatrix[i], "-channels") && !strings.Contains(goldenMatrix[i], "-shards") {
		args = append(args, "-checkpoint-out", "c")
	}
	return args
}

// goldenRun is one matrix run rendered as its golden text: a header
// naming the command, the exit code and the stdout; and one digest
// line per file the run wrote.
type goldenRun struct {
	text    string
	digests []string
}

// TestGoldenMatrix runs the matrix and compares every stdout and exit
// code with testdata/golden_matrix.txt, and the SHA-256 of every
// metrics, events and checkpoint file with testdata/golden_digests.txt.
// A change that moves simulated output on purpose rewrites both with
//
//	go test ./cmd/fdcsim -run TestGoldenMatrix -update
//
// and says which lines moved and why.
func TestGoldenMatrix(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the goldens are pinned to amd64: on %s Go may fuse x*y+z into one FMA instruction, so simulated floats can differ", runtime.GOARCH)
	}
	runs := make([]goldenRun, len(goldenMatrix))
	t.Run("runs", func(t *testing.T) {
		for i := range goldenMatrix {
			t.Run(strconv.Itoa(i+1), func(t *testing.T) {
				t.Parallel()
				runs[i] = runGolden(t, i)
			})
		}
	})
	if t.Failed() {
		return
	}
	var text, digests strings.Builder
	for _, r := range runs {
		text.WriteString(r.text)
		for _, d := range r.digests {
			digests.WriteString(d + "\n")
		}
	}
	if *update {
		for name, data := range map[string]string{goldenStdoutFile: text.String(), goldenDigestsFile: digests.String()} {
			if err := os.WriteFile(name, []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	wantText, err := os.ReadFile(goldenStdoutFile)
	if err != nil {
		t.Fatal(err)
	}
	wantDigests, err := os.ReadFile(goldenDigestsFile)
	if err != nil {
		t.Fatal(err)
	}
	wantRuns := splitGolden(string(wantText))
	if len(wantRuns) != len(runs) {
		t.Fatalf("%s holds %d runs, the matrix has %d; rerun with -update", goldenStdoutFile, len(wantRuns), len(runs))
	}
	for i, r := range runs {
		diffLines(t, fmt.Sprintf("run %d (fdcsim %s)", i+1, goldenMatrix[i]), r.text, wantRuns[i])
	}
	diffLines(t, goldenDigestsFile, digests.String(), string(wantDigests))
}

// runGolden runs matrix line i in a fresh directory and renders it.
func runGolden(t *testing.T, i int) goldenRun {
	dir := t.TempDir()
	args := goldenArgs(i)
	code, stdout, stderr := cmdtest.RunIn(t, dir, args...)
	if code != 0 && code != 1 {
		t.Fatalf("fdcsim %s: exit code %d; stderr:\n%s", strings.Join(args, " "), code, stderr)
	}
	r := goldenRun{text: fmt.Sprintf("$ fdcsim %s\nexit %d\n%s", strings.Join(args, " "), code, stdout)}
	for _, name := range []string{"m", "e", "c"} {
		f, err := os.Open(filepath.Join(dir, name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		r.digests = append(r.digests, fmt.Sprintf("%x  %d/%s", h.Sum(nil), i+1, name))
	}
	return r
}

// splitGolden cuts a golden text into its runs at the "$ fdcsim"
// header lines.
func splitGolden(text string) []string {
	var runs []string
	for _, block := range strings.Split(text, "$ fdcsim ")[1:] {
		runs = append(runs, "$ fdcsim "+block)
	}
	return runs
}

// diffLines reports the first line where got and want differ.
func diffLines(t *testing.T, what, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for n := 0; ; n++ {
		if n >= len(g) || n >= len(w) || g[n] != w[n] {
			t.Errorf("%s differs from the golden at line %d\n got: %s\nwant: %s", what, n+1, lineAt(g, n), lineAt(w, n))
			return
		}
	}
}

func lineAt(lines []string, n int) string {
	if n >= len(lines) {
		return "(end of output)"
	}
	return strconv.Quote(lines[n])
}

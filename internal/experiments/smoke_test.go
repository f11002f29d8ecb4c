package experiments

import (
	"flag"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_quick.txt")

// goldenQuickFile holds every experiment's table at QuickOptions, in
// registry order, exactly as fdcbench -exp all -scale 0.0078125 prints
// them.
const goldenQuickFile = "testdata/golden_quick.txt"

// paperArtifacts are the tables and figures of the paper's evaluation;
// each must have a registered runner.
var paperArtifacts = []string{
	"table1", "table2", "table3", "table4",
	"fig1b", "fig4", "fig6a", "fig6b", "fig7", "fig9", "fig10", "fig11", "fig12",
}

// TestAllExperimentsQuick checks every paper artifact is registered,
// then executes every registered experiment at the quick scale,
// sanity-checks the output tables and compares each rendering with
// testdata/golden_quick.txt. A change that moves a table on purpose
// rewrites the file with
//
//	go test ./internal/experiments -run TestAllExperimentsQuick -update
//
// and says which tables moved and why.
func TestAllExperimentsQuick(t *testing.T) {
	registered := map[string]bool{}
	for _, id := range IDs() {
		registered[id] = true
	}
	for _, id := range paperArtifacts {
		if !registered[id] {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
	ids := IDs()
	got := make([]string, len(ids))
	for i, id := range ids {
		t.Run(id, func(t *testing.T) {
			tab := MustRun(id, QuickOptions())
			if tab.ID != id {
				t.Fatalf("table ID %q, want %q", tab.ID, id)
			}
			if len(tab.Header) == 0 || len(tab.Rows) == 0 {
				t.Fatalf("experiment %s produced an empty table", id)
			}
			for _, row := range tab.Rows {
				if len(row) != len(tab.Header) {
					t.Fatalf("%s: row width %d != header %d", id, len(row), len(tab.Header))
				}
			}
			got[i] = tab.String() + "\n"
		})
	}
	if t.Failed() {
		return
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("the golden tables are pinned to amd64: on %s Go may fuse x*y+z into one FMA instruction, so simulated floats can differ", runtime.GOARCH)
	}
	if *update {
		if err := os.WriteFile(goldenQuickFile, []byte(strings.Join(got, "")), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenQuickFile)
	if err != nil {
		t.Fatal(err)
	}
	want := splitTables(string(data))
	if len(want) != len(ids) {
		t.Errorf("%s holds %d tables, the registry has %d; rerun with -update", goldenQuickFile, len(want), len(ids))
	}
	for i, id := range ids {
		w, ok := want[id]
		if !ok {
			t.Errorf("%s: no golden table; rerun with -update", id)
			continue
		}
		if got[i] == w {
			continue
		}
		g, wl := strings.Split(got[i], "\n"), strings.Split(w, "\n")
		for n := 0; ; n++ {
			if n >= len(g) || n >= len(wl) || g[n] != wl[n] {
				t.Errorf("%s differs from the golden at line %d\n got: %s\nwant: %s", id, n+1, lineAt(g, n), lineAt(wl, n))
				break
			}
		}
	}
}

// TestTinyBudgets: every registered experiment, run with a one-request
// budget, finishes without panicking and prints no NaN or infinite
// cell — a budget too small for an experiment's loop must still yield
// a finite table.
func TestTinyBudgets(t *testing.T) {
	o := QuickOptions()
	o.Requests = 1
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			for _, row := range MustRun(id, o).Rows {
				for _, cell := range row {
					if strings.Contains(cell, "NaN") || strings.Contains(cell, "Inf") {
						t.Fatalf("%s: non-finite cell %q in row %q", id, cell, row)
					}
				}
			}
		})
	}
}

// splitTables cuts a golden text into its tables at the "== id: "
// header lines that Table.String writes first.
func splitTables(text string) map[string]string {
	tabs := map[string]string{}
	id := ""
	for _, line := range strings.SplitAfter(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "== "); ok {
			id, _, _ = strings.Cut(rest, ":")
		}
		tabs[id] += line
	}
	return tabs
}

func lineAt(lines []string, n int) string {
	if n >= len(lines) {
		return "(end of output)"
	}
	return strconv.Quote(lines[n])
}

// TestRunRejectsBadOptions: a scale outside [0, 1] or below MinScale,
// or a negative request budget is an error, not a silently substituted
// default.
func TestRunRejectsBadOptions(t *testing.T) {
	for _, o := range []Options{
		{Scale: 2},
		{Scale: -0.5},
		{Scale: math.NaN()},
		{Scale: 0.0078},
		{Scale: 0.001},
		{Requests: -5},
	} {
		if _, err := Run("table1", o); err == nil {
			t.Errorf("Run accepted %+v", o)
		}
	}
}

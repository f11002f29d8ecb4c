package experiments

import (
	"math"
	"testing"
)

// paperArtifacts are the tables and figures of the paper's evaluation;
// each must have a registered runner.
var paperArtifacts = []string{
	"table1", "table2", "table3", "table4",
	"fig1b", "fig4", "fig6a", "fig6b", "fig7", "fig9", "fig10", "fig11", "fig12",
}

// TestAllExperimentsQuick checks every paper artifact is registered,
// then executes every registered experiment at the quick scale and
// sanity-checks the output tables.
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
	for _, id := range IDs() {
		id := id
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
			if tab.String() == "" {
				t.Fatal("empty rendering")
			}
		})
	}
}

// TestRunRejectsBadOptions: a scale outside [0, 1] or a negative
// request budget is an error, not a silently substituted default.
func TestRunRejectsBadOptions(t *testing.T) {
	for _, o := range []Options{
		{Scale: 2},
		{Scale: -0.5},
		{Scale: math.NaN()},
		{Requests: -5},
	} {
		if _, err := Run("table1", o); err == nil {
			t.Errorf("Run accepted %+v", o)
		}
	}
}

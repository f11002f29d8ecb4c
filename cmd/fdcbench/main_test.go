package main

import (
	"strings"
	"testing"

	"flashdc/internal/cmdtest"
)

func TestMain(m *testing.M) { cmdtest.Main(m, main) }

// TestUsageErrors: a value outside its flag's domain, an unknown
// format or experiment id, or a stray argument exits 2 with the usage
// hint before any experiment runs, never with a substituted value.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // a phrase stderr must hold
	}{
		{[]string{"-scale", "2"}, "-scale 2 outside (0,1]"},
		{[]string{"-scale", "0"}, "-scale 0 outside (0,1]"},
		{[]string{"-scale", "-0.5"}, "-scale -0.5 outside (0,1]"},
		{[]string{"-scale", "NaN"}, "-scale NaN outside (0,1]"},
		{[]string{"-requests", "-5"}, "-requests -5 is negative"},
		{[]string{"-seeds", "-3"}, "-seeds -3"},
		{[]string{"-seeds", "0"}, "-seeds 0"},
		{[]string{"-parallel", "-2"}, "-parallel -2"},
		{[]string{"-parallel", "0"}, "-parallel 0"},
		{[]string{"-format", "xml"}, `-format "xml"`},
		{[]string{"-exp", "fig4,"}, `unknown experiment ""`},
		{[]string{"-exp", ""}, `unknown experiment ""`},
		{[]string{"-exp", "nope"}, `unknown experiment "nope"`},
		{[]string{"-exp", "table1,nope"}, `unknown experiment "nope"`},
		{[]string{"-exp", "ablate-pdc"}, `unknown experiment "ablate-pdc"`},
		{[]string{"table1"}, `unexpected argument "table1"`},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			// A cheap default experiment, so a run that wrongly goes
			// ahead stays fast.
			args := append([]string{"-exp", "table1"}, tc.args...)
			code, stdout, stderr := cmdtest.Run(t, args...)
			if code != 2 {
				t.Errorf("exit code %d, want 2; stderr:\n%s", code, stderr)
			}
			if stdout != "" {
				t.Errorf("printed output before rejecting the flags:\n%s", stdout)
			}
			if !strings.Contains(stderr, "run with -h for usage") {
				t.Errorf("stderr lacks the usage hint:\n%s", stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr lacks %q:\n%s", tc.want, stderr)
			}
		})
	}
}

// TestValidRun: well-formed runs exit 0 with their tables.
func TestValidRun(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-list"}, "fig4\n"},
		{[]string{"-exp", "table1, table2", "-scale", "0.0078125"}, "== table2:"},
		{[]string{"-exp", "table1", "-format", "json", "-seeds", "2", "-parallel", "2"}, `"ID": "table1"`},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			code, stdout, stderr := cmdtest.Run(t, tc.args...)
			if code != 0 {
				t.Fatalf("exit code %d, want 0; stderr:\n%s", code, stderr)
			}
			if !strings.Contains(stdout, tc.want) {
				t.Fatalf("stdout lacks %q:\n%s", tc.want, stdout)
			}
		})
	}
}

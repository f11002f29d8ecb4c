package main

import (
	"strings"
	"testing"

	"flashdc/internal/cmdtest"
)

func TestMain(m *testing.M) { cmdtest.Main(m, main) }

// TestUsageErrors: an unknown workload, a scale outside (0,1], a
// negative request count or a stray argument exits 2 with the usage
// hint and writes no trace.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // a phrase stderr must hold
	}{
		{[]string{"-workload", "nope"}, "nope"},
		{[]string{"-scale", "2"}, "-scale 2 outside (0,1]"},
		{[]string{"-scale", "0"}, "-scale 0 outside (0,1]"},
		{[]string{"-scale", "NaN"}, "-scale NaN outside (0,1]"},
		{[]string{"-requests", "-5"}, "-requests -5 is negative"},
		{[]string{"alpha1"}, `unexpected argument "alpha1"`},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			code, stdout, stderr := cmdtest.Run(t, append([]string{"-requests", "10"}, tc.args...)...)
			if code != 2 {
				t.Errorf("exit code %d, want 2; stderr:\n%s", code, stderr)
			}
			if stdout != "" {
				t.Errorf("wrote a trace before rejecting the flags:\n%s", stdout)
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

// TestValidRun: a well-formed run writes the header and one line per
// request.
func TestValidRun(t *testing.T) {
	code, stdout, stderr := cmdtest.Run(t, "-workload", "alpha1", "-requests", "10", "-scale", "0.0078125")
	if code != 0 {
		t.Fatalf("exit code %d, want 0; stderr:\n%s", code, stderr)
	}
	lines := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
	if len(lines) != 11 || !strings.HasPrefix(lines[0], "# workload=alpha1 ") {
		t.Fatalf("want a header and 10 requests, got:\n%s", stdout)
	}
}

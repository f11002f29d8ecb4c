package main

import (
	"strings"
	"testing"

	"flashdc/internal/cmdtest"
)

func TestMain(m *testing.M) { cmdtest.Main(m, main) }

// TestUsageErrors: a value outside its flag's domain or a stray
// argument exits 2 with the usage hint before any page is encoded,
// never with a panic or a loop that cannot end.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // a phrase stderr must hold
	}{
		{[]string{"-pages", "0"}, "-pages 0"},
		{[]string{"-pages", "-3"}, "-pages -3"},
		{[]string{"-errors", "-2"}, "-errors -2 outside [0, 16384]"},
		// Only 16384 distinct bit positions exist in a 2KB page.
		{[]string{"-errors", "20000", "-pages", "1"}, "-errors 20000 outside [0, 16384]"},
		{[]string{"-t", "0"}, "strength 0 outside [1, 12]"},
		{[]string{"-t", "13"}, "strength 13 outside [1, 12]"},
		// Past the int32 range: a Strength conversion would wrap to 4.
		{[]string{"-t", "4294967300"}, "strength 4294967300 outside [1, 12]"},
		{[]string{"stray"}, `unexpected argument "stray"`},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			code, stdout, stderr := cmdtest.Run(t, tc.args...)
			if code != 2 {
				t.Errorf("exit code %d, want 2; stderr:\n%s", code, stderr)
			}
			if stdout != "" {
				t.Errorf("printed output before rejecting the flags:\n%s", stdout)
			}
			if strings.Contains(stderr, "panic:") {
				t.Errorf("panicked:\n%s", stderr)
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

// TestCorrection: errors within the code's strength are all corrected;
// more than it can correct are reported, never silently accepted.
func TestCorrection(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-t", "4", "-errors", "4", "-pages", "4"}, "corrected: 16 bits total, uncorrectable pages: 0\n"},
		{[]string{"-t", "2", "-errors", "5", "-pages", "4"}, "uncorrectable pages: 4\n"},
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

// TestDeterministic: the output depends only on the flags, so two
// same-seed runs print the same bytes.
func TestDeterministic(t *testing.T) {
	args := []string{"-t", "3", "-errors", "4", "-pages", "6", "-seed", "9"}
	_, first, _ := cmdtest.Run(t, args...)
	_, second, _ := cmdtest.Run(t, args...)
	if first == "" || first != second {
		t.Fatalf("same-seed runs differ:\n%s\n---\n%s", first, second)
	}
}

package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// childEnv makes the test binary run fdcsim's main instead of the
// tests, so each case exercises the real flag parsing and exit paths.
const childEnv = "FDCSIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runFdcsim re-executes the test binary as fdcsim with args in a fresh
// directory and returns its exit code and output.
func runFdcsim(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Dir = t.TempDir()
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exitErr *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exitErr):
		code = exitErr.ExitCode()
	default:
		t.Fatalf("running fdcsim %v: %v", args, err)
	}
	return code, out.String(), errOut.String()
}

// TestUsageErrors: every bad size, capacity, interval, workload or
// shard split exits 2 with the usage hint, never with a panic.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-dram", "0"},
		{"-dram", "100"},
		{"-dram", "-4M"},
		{"-flash", "100"},
		{"-flash", "-8M"},
		{"-workload", "nope"},
		{"-scale", "2"},
		{"-shards", "4", "-flash", "1M"},
		{"-trace-cap", "-1"},
		{"-metrics-interval", "-5ms"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			code, _, stderr := runFdcsim(t, append(args, "-requests", "1000")...)
			if code != 2 {
				t.Errorf("exit code %d, want 2; stderr:\n%s", code, stderr)
			}
			if !strings.Contains(stderr, "run with -h for usage") {
				t.Errorf("stderr lacks the usage hint:\n%s", stderr)
			}
			if strings.Contains(stderr, "panic:") {
				t.Errorf("stderr holds a panic:\n%s", stderr)
			}
		})
	}
}

// TestValidRun: a small well-formed run exits 0 with a report.
func TestValidRun(t *testing.T) {
	code, stdout, stderr := runFdcsim(t, "-dram", "1M", "-flash", "8M", "-requests", "2000")
	if code != 0 {
		t.Fatalf("exit code %d, want 0; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "requests:") {
		t.Fatalf("stdout lacks the report:\n%s", stdout)
	}
}

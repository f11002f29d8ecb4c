// Package cmdtest runs a command's main in a child process of its own
// test binary, so command tests exercise the real flag parsing and
// exit paths.
//
// A command's test file calls Main from TestMain and Run from each
// test:
//
//	func TestMain(m *testing.M) { cmdtest.Main(m, main) }
//
//	code, stdout, stderr := cmdtest.Run(t, "-flag", "value")
//
// RunIn does the same in a directory of the caller's choosing, for
// tests that read the files the command writes.
package cmdtest

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"testing"
)

// childEnv makes the test binary run the command's main instead of
// the tests.
const childEnv = "FLASHDC_CMDTEST_RUN_MAIN"

// Main runs main and exits 0 in a child started by Run; otherwise it
// runs the tests.
func Main(m *testing.M, main func()) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Run re-executes the test binary as the command with args in a fresh
// directory and returns its exit code and output.
func Run(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	return RunIn(t, t.TempDir(), args...)
}

// RunIn is Run in the given directory, so the caller can read the
// files the command writes there.
func RunIn(t *testing.T, dir string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Dir = dir
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exitErr *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exitErr):
		code = exitErr.ExitCode()
	default:
		t.Fatalf("running %v: %v", args, err)
	}
	return code, out.String(), errOut.String()
}

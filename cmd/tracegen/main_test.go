package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flashdc/internal/cmdtest"
	"flashdc/internal/trace"
	"flashdc/internal/workload"
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

// TestFilesHoldTheGeneratedStream: the text and binary files tracegen
// writes hold exactly the generator's request stream, as the trace
// package's writers encode it (the text file after its header line),
// so replaying either through fdcsim -trace is replaying the generated
// workload.
func TestFilesHoldTheGeneratedStream(t *testing.T) {
	const requests = 50000
	g := workload.MustNew("alpha2", 0.0625, 3)
	var text bytes.Buffer
	tw := trace.NewWriter(&text)
	bin := trace.AppendBinaryHeader(nil)
	for i := 0; i < requests; i++ {
		r := g.Next()
		if err := tw.Write(r); err != nil {
			t.Fatal(err)
		}
		bin = trace.AppendBinary(bin, r)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, tc := range []struct {
		file string
		args []string
		want []byte
	}{
		{"alpha2.fdct", []string{"-binary"}, bin},
		{"alpha2.trace", nil, text.Bytes()},
	} {
		args := append(tc.args, "-workload", "alpha2", "-scale", "0.0625", "-seed", "3", "-requests", "50000", "-o", tc.file)
		if code, _, stderr := cmdtest.RunIn(t, dir, args...); code != 0 {
			t.Fatalf("tracegen %s: exit code %d; stderr:\n%s", strings.Join(args, " "), code, stderr)
		}
		got, err := os.ReadFile(filepath.Join(dir, tc.file))
		if err != nil {
			t.Fatal(err)
		}
		if tc.args == nil {
			header, rest, _ := bytes.Cut(got, []byte("\n"))
			if !bytes.HasPrefix(header, []byte("# workload=alpha2 ")) {
				t.Errorf("%s opens with %q, want the header line", tc.file, header)
			}
			got = rest
		}
		if !bytes.Equal(got, tc.want) {
			t.Errorf("%s does not hold the generated stream (%d bytes, want %d)", tc.file, len(got), len(tc.want))
		}
	}
}

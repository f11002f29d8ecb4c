package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestParsePure: parse is a function of its arguments: two calls on
// the same arguments give equal configs or equal errors, and neither
// writes to stdout or stderr, for an accepted line, -h or a refused one.
func TestParsePure(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	written := make(chan []byte)
	go func() {
		out, _ := io.ReadAll(r)
		written <- out
	}()
	stdout, stderr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = w, w
	lines := append([]string{"", "-h", "-nope", "-flash 0 -wbuf -1", "-list-policies"}, goldenMatrix...)
	for _, line := range lines {
		a, errA := parse(strings.Fields(line))
		b, errB := parse(strings.Fields(line))
		if !reflect.DeepEqual(a, b) || fmt.Sprint(errA) != fmt.Sprint(errB) {
			t.Errorf("%q: two parses differ:\n%+v, %v\n%+v, %v", line, a, errA, b, errB)
		}
	}
	os.Stdout, os.Stderr = stdout, stderr
	w.Close()
	if out := <-written; len(out) > 0 {
		t.Errorf("parse wrote %d bytes:\n%s", len(out), out)
	}
}

// flagNames returns the names of parse's flags, read from its usage
// text, plus h. boolean reports which of them take no value.
func flagNames(t testing.TB) (names []string, boolean map[string]bool) {
	_, err := parse([]string{"-h"})
	var fe *flagError
	if !errors.As(err, &fe) || fe.error != flag.ErrHelp {
		t.Fatalf("parse(-h) = %v, want flag.ErrHelp", err)
	}
	boolean = map[string]bool{"h": true}
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)( \S+)?$`).FindAllStringSubmatch(fe.text, -1) {
		names = append(names, m[1])
		boolean[m[1]] = m[2] == ""
	}
	if len(names) < 30 {
		t.Fatalf("read %d flag names from the usage text:\n%s", len(names), fe.text)
	}
	return append(names, "h"), boolean
}

// FuzzFlags: on any values of any of its flags, parse never panics,
// every error it returns is a usage error (exit 2, or 0 for -h) with
// the text usage prints for it, and every configuration it accepts
// passes engine.Config.Validate. The input picks flags by index, one
// byte each, and gives their values one line each. The seeds are
// every usage error case, every golden matrix line and the two
// scheduler sizes that used to exhaust memory mid-run.
func FuzzFlags(f *testing.F) {
	names, boolean := flagNames(f)
	index := map[string]byte{}
	for i, name := range names {
		index[name] = byte(i)
	}
	seed := func(args []string) {
		var picks []byte
		var values []string
		for i := 0; i < len(args); i++ {
			name := strings.TrimPrefix(args[i], "-")
			value := "true"
			if !boolean[name] {
				i++
				value = args[i]
			}
			picks, values = append(picks, index[name]), append(values, value)
		}
		f.Add(picks, strings.Join(values, "\n"))
	}
	for _, tc := range usageErrorCases {
		seed(append(tc.args, "-requests", "1000"))
	}
	for i := range goldenMatrix {
		seed(goldenArgs(i))
	}
	seed(strings.Fields("-flash 8M -dram 1M -requests 2000 -wbuf 2000000000"))
	seed(strings.Fields("-flash 8M -dram 1M -requests 2000 -channels 1000000 -banks 1000000"))

	f.Fuzz(func(t *testing.T, picks []byte, values string) {
		lines := strings.Split(values, "\n")
		args := make([]string, len(picks))
		for i, p := range picks {
			args[i] = "-" + names[int(p)%len(names)] + "="
			if i < len(lines) {
				args[i] += lines[i]
			}
		}
		rc, err := parse(args)
		if err == nil {
			if verr := rc.engine.Validate(); verr != nil && !rc.listPolicies {
				t.Fatalf("%q: parse accepted a config engine.Config.Validate refuses: %v", args, verr)
			}
			return
		}
		var out bytes.Buffer
		code := usage(&out, err)
		var fe *flagError
		want, wantCode := "fdcsim: "+err.Error()+"\nrun with -h for usage\n", 2
		if errors.As(err, &fe) {
			want = fe.text
			if fe.error == flag.ErrHelp {
				wantCode = 0
			}
		}
		if code != wantCode || out.String() != want {
			t.Fatalf("%q: usage printed %q and returned %d, want %q and %d", args, out.String(), code, want, wantCode)
		}
	})
}

package main

import (
	"strings"
	"testing"

	"flashdc/internal/cmdtest"
)

func TestMain(m *testing.M) { cmdtest.Main(m, main) }

// TestUsageErrors: every bad or overflowing size, capacity, interval, workload, shard
// split or out-of-domain number (NaN, infinity, a fault rate outside
// [0, 1], a negative count) exits 2 with the usage hint, never with a
// panic or a silently ignored value.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // a phrase stderr must hold, when set
	}{
		{args: []string{"-dram", "0"}},
		{args: []string{"-dram", "100"}},
		{args: []string{"-dram", "-4M"}},
		{args: []string{"-flash", "100"}},
		{args: []string{"-flash", "-8M"}},
		{[]string{"-dram", "9999999999999G"}, "-dram: size 9999999999999G overflows a 64-bit byte count"},
		{[]string{"-dram", "9999999999G"}, "-dram: size 9999999999G overflows a 64-bit byte count"},
		{[]string{"-flash", "9999999999999G"}, "-flash: size 9999999999999G overflows a 64-bit byte count"},
		{args: []string{"-workload", "nope"}},
		{args: []string{"-scale", "2"}},
		{args: []string{"-shards", "4", "-flash", "1M"}},
		{args: []string{"-trace-cap", "-1"}},
		{args: []string{"-metrics-interval", "-5ms"}},
		{[]string{"-wear-accel", "NaN"}, "-wear-accel NaN"},
		{[]string{"-wear-accel", "Inf"}, "-wear-accel +Inf"},
		{[]string{"-retention-accel", "NaN"}, "-retention-accel NaN"},
		{[]string{"-retention-accel", "Inf"}, "-retention-accel +Inf"},
		{[]string{"-disturb-reads", "NaN"}, "-disturb-reads NaN"},
		{[]string{"-disturb-reads", "Inf"}, "-disturb-reads +Inf"},
		{[]string{"-refresh-threshold", "NaN"}, "-refresh-threshold NaN"},
		{[]string{"-faults", "read=2"}, "2 is not a probability"},
		{[]string{"-faults", "read=Inf"}, "+Inf is not a probability"},
		{[]string{"-faults", "read=NaN"}, "NaN is not a probability"},
		{[]string{"-faults", "grown=5,program=0.1"}, "5 is not a probability"},
		{[]string{"-faults", "read=0.1,flipmax=-3"}, "-3 flips is negative"},
		{[]string{"-faults", "bad=-1"}, "block -1 is negative"},
		{[]string{"-faults", "read=0.1,burst-every=100,burst-factor=-1"}, "-1 is not a finite factor"},
		{[]string{"-policy-gc", "windowed-greedy"}, "unknown gc policy"},
		{[]string{"-metrics-interval", "10ms"}, "-metrics-interval takes snapshots only -metrics-out or -http reads"},
		{[]string{"-trace-cap", "64"}, "-trace-cap sizes the event buffer only -trace-events writes"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			code, _, stderr := cmdtest.Run(t, append(tc.args, "-requests", "1000")...)
			if code != 2 {
				t.Errorf("exit code %d, want 2; stderr:\n%s", code, stderr)
			}
			if !strings.Contains(stderr, "run with -h for usage") {
				t.Errorf("stderr lacks the usage hint:\n%s", stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr lacks %q:\n%s", tc.want, stderr)
			}
			if strings.Contains(stderr, "panic:") {
				t.Errorf("stderr holds a panic:\n%s", stderr)
			}
		})
	}
}

// TestValidRun: a small well-formed run exits 0 with a report.
func TestValidRun(t *testing.T) {
	code, stdout, stderr := cmdtest.Run(t, "-dram", "1M", "-flash", "8M", "-requests", "2000")
	if code != 0 {
		t.Fatalf("exit code %d, want 0; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "requests:") {
		t.Fatalf("stdout lacks the report:\n%s", stdout)
	}
}

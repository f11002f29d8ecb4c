package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flashdc/internal/cmdtest"
	"flashdc/internal/policy"
	"flashdc/internal/trace"
	"flashdc/internal/workload"
)

func TestMain(m *testing.M) { cmdtest.Main(m, main) }

// TestUsageErrors: every bad or overflowing size, capacity (a Flash
// tier of more blocks than a page address can name included), interval,
// workload, shard split or out-of-domain number (NaN, infinity, a fault
// rate outside [0, 1], a negative count) exits 2 with the usage hint,
// never with a panic or a silently ignored value.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // a phrase stderr must hold, when set
	}{
		{args: []string{"-dram", "0"}},
		{args: []string{"-dram", "100"}},
		{args: []string{"-dram", "-4M"}},
		{[]string{"-flash", "100"}, "100 bytes of flash is too small (need at least 4 blocks, 524288 bytes)"},
		{args: []string{"-flash", "-8M"}},
		{[]string{"-dram", "9999999999999G"}, "-dram: size 9999999999999G overflows a 64-bit byte count"},
		{[]string{"-dram", "9999999999G"}, "-dram: size 9999999999G overflows a 64-bit byte count"},
		{[]string{"-flash", "9999999999999G"}, "-flash: size 9999999999999G overflows a 64-bit byte count"},
		{[]string{"-flash", "5000G"}, "20480000 blocks (at most 16777216)"},
		// Within the page addresses per shard, but refused on the
		// per-page state it would allocate, before allocating it.
		{[]string{"-flash", "5000G", "-shards", "2"}, "each of 2 shards needs 118245982208 bytes of per-page state, over the 8589934592-byte limit"},
		{[]string{"-dram", "5000G"}, "each of 1 shards needs 131639279616 bytes of per-page state"},
		{args: []string{"-workload", "nope"}},
		{args: []string{"-scale", "2"}},
		{[]string{"-shards", "4", "-flash", "1M"}, "each of 4 shards gets 262144 bytes of Flash: core: 262144 bytes of flash is too small"},
		{args: []string{"-trace-cap", "-1"}},
		// The event ring counts in the same limit, before it is allocated.
		{[]string{"-flash", "8M", "-dram", "1M", "-requests", "10", "-trace-events", "e", "-trace-cap", "200000000"},
			"each of 1 shards needs a 200000000-event trace ring"},
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
		{[]string{"-policy-gc", "definitely-not-a-policy"}, "unknown gc policy"},
		// A deleted policy name is as unknown as a misspelled one.
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

// TestScrubDeferralEngages: -scrub on a parallel geometry defers scrub
// migrations off busy banks with no other flag and reports them on the
// sched feedback line; the same run on the serial device prints no
// such line.
func TestScrubDeferralEngages(t *testing.T) {
	args := []string{"-workload", "alpha1", "-flash", "8M", "-dram", "2M", "-requests", "20000",
		"-wear-accel", "20000", "-scrub", "32"}
	for _, geometry := range [][]string{nil, {"-channels", "4", "-banks", "2"}} {
		code, stdout, stderr := cmdtest.Run(t, append(args, geometry...)...)
		if code != 0 {
			t.Fatalf("%v: exit code %d, want 0; stderr:\n%s", geometry, code, stderr)
		}
		_, line, found := strings.Cut(stdout, "sched feedback:")
		if geometry == nil {
			if found {
				t.Errorf("serial device reports scheduler feedback:\n%s", stdout)
			}
			continue
		}
		var gc, throttle, deferred int
		if _, err := fmt.Sscanf(strings.TrimSpace(line), "%d GC deferrals, %d throttle engagements, %d scrub deferrals",
			&gc, &throttle, &deferred); err != nil {
			t.Fatalf("%v: no sched feedback line (%v):\n%s", geometry, err, stdout)
		}
		if deferred == 0 {
			t.Errorf("%v: the scrubber deferred no migration:\n%s", geometry, stdout)
		}
	}
}

// TestListPolicies: -list-policies prints one line per policy kind
// and exits 0 without simulating.
func TestListPolicies(t *testing.T) {
	code, stdout, stderr := cmdtest.Run(t, "-list-policies")
	if code != 0 {
		t.Fatalf("exit code %d, want 0; stderr:\n%s", code, stderr)
	}
	for _, kind := range policy.Kinds() {
		if !strings.Contains(stdout, fmt.Sprintf("(default %s)", policy.DefaultName(kind))) {
			t.Errorf("stdout lacks the %s default:\n%s", kind, stdout)
		}
	}
	if strings.Contains(stdout, "requests:") {
		t.Errorf("-list-policies ran a simulation:\n%s", stdout)
	}
}

// TestTraceFormats: -trace tells the two trace formats apart by their
// first bytes, and a generated workload and the same stream as a text
// file and as an FDCT file take one driving path, so all three print
// byte-identical reports. A truncated FDCT file is an input error
// (exit 1).
func TestTraceFormats(t *testing.T) {
	gen, err := workload.New("alpha2", 0.0625, 3)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]trace.Request, 50000)
	if n := workload.AsSource(gen).Next(reqs); n != len(reqs) {
		t.Fatalf("generated %d requests, want %d", n, len(reqs))
	}
	// The text file opens with a comment line, as tracegen writes it.
	text := bytes.NewBufferString("# workload=alpha2 scale=0.0625 seed=3\n")
	tw := trace.NewWriter(text)
	bin := trace.AppendBinaryHeader(nil)
	for _, r := range reqs {
		if err := tw.Write(r); err != nil {
			t.Fatal(err)
		}
		bin = trace.AppendBinary(bin, r)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	files := map[string][]byte{
		"alpha2.trace":   text.Bytes(),
		"alpha2.fdct":    bin,
		"truncated.fdct": bin[:len(bin)-5],
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, flags := range [][]string{
		{"-dram", "1M", "-flash", "8M", "-requests", "5000", "-shards", "2"},
		{"-requests", "50000", "-shards", "4"},
	} {
		replay := func(input ...string) (int, string, string) {
			return cmdtest.Run(t, append(append(input, "-seed", "3"), flags...)...)
		}
		code, genOut, stderr := replay("-workload", "alpha2", "-scale", "0.0625")
		if code != 0 {
			t.Fatalf("%v: generated workload: exit code %d, want 0; stderr:\n%s", flags, code, stderr)
		}
		if !strings.Contains(genOut, "requests:") {
			t.Fatalf("%v: stdout lacks the report:\n%s", flags, genOut)
		}
		for _, name := range []string{"alpha2.trace", "alpha2.fdct"} {
			code, out, stderr := replay("-trace", filepath.Join(dir, name))
			if code != 0 {
				t.Fatalf("%v: %s: exit code %d, want 0; stderr:\n%s", flags, name, code, stderr)
			}
			if out != genOut {
				t.Fatalf("%v: %s and generated replays differ:\n--- %s\n%s\n--- generated\n%s", flags, name, name, out, genOut)
			}
		}
		if code, _, stderr := replay("-trace", filepath.Join(dir, "truncated.fdct")); code != 1 {
			t.Fatalf("%v: truncated FDCT trace: exit code %d, want 1; stderr:\n%s", flags, code, stderr)
		}
	}
}

// TestCheckpointFlagChangesNoOutput: fdcsim drives the engine at every
// shard count, so a plain 1-shard run and the same run writing a
// checkpoint produce the same stdout, metrics and events byte for byte.
func TestCheckpointFlagChangesNoOutput(t *testing.T) {
	args := []string{"-workload", "Financial1", "-scale", "0.03125", "-dram", "4M", "-flash", "32M",
		"-seed", "7", "-requests", "30000", "-scrub", "512", "-faults", "read=2e-3,program=1e-3,seed=7",
		"-metrics-out", "metrics.jsonl", "-metrics-interval", "20ms", "-trace-events", "events.jsonl"}
	plainDir, ckptDir := t.TempDir(), t.TempDir()
	code, plain, stderr := cmdtest.RunIn(t, plainDir, args...)
	if code != 0 {
		t.Fatalf("plain run: exit code %d; stderr:\n%s", code, stderr)
	}
	code, ckpt, stderr := cmdtest.RunIn(t, ckptDir, append(args, "-checkpoint-out", "run.ckpt")...)
	if code != 0 {
		t.Fatalf("checkpointing run: exit code %d; stderr:\n%s", code, stderr)
	}
	if plain != ckpt {
		t.Errorf("-checkpoint-out changed stdout:\n--- plain\n%s\n--- with -checkpoint-out\n%s", plain, ckpt)
	}
	for _, name := range []string{"metrics.jsonl", "events.jsonl"} {
		want, err := os.ReadFile(filepath.Join(plainDir, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(ckptDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("-checkpoint-out changed %s", name)
		}
	}
}

// TestObservationDoesNotPerturb: writing metrics and events adds
// exactly the two lines that name the output files to a sharded run's
// stdout and changes nothing else.
func TestObservationDoesNotPerturb(t *testing.T) {
	args := []string{"-workload", "alpha2", "-scale", "0.0625", "-shards", "2", "-requests", "100000", "-seed", "3"}
	code, plain, stderr := cmdtest.Run(t, args...)
	if code != 0 {
		t.Fatalf("plain run: exit code %d; stderr:\n%s", code, stderr)
	}
	code, observed, stderr := cmdtest.Run(t, append(args,
		"-metrics-out", "metrics.jsonl", "-metrics-interval", "10ms", "-trace-events", "events.jsonl")...)
	if code != 0 {
		t.Fatalf("observed run: exit code %d; stderr:\n%s", code, stderr)
	}
	var stripped []string
	added := 0
	for _, line := range strings.SplitAfter(observed, "\n") {
		if strings.HasPrefix(line, "metrics: ") || strings.HasPrefix(line, "trace events: ") {
			added++
			continue
		}
		stripped = append(stripped, line)
	}
	if added != 2 {
		t.Errorf("observed stdout holds %d metrics/trace-events lines, want 2:\n%s", added, observed)
	}
	if got := strings.Join(stripped, ""); got != plain {
		t.Errorf("observation changed stdout:\n--- plain\n%s\n--- observed, file lines stripped\n%s", plain, got)
	}
}

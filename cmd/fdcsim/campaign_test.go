package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"flashdc/internal/cmdtest"
)

// campaignRun is one fdcsim run's exit code and stdout.
type campaignRun struct {
	code   int
	stdout string
}

// segmentedCampaign runs args for total requests twice in dir: unbroken
// with -checkpoint-out full.ckpt, and as two halves joined by
// seg1.ckpt, the second writing seg2.ckpt. The resumed half must print
// the unbroken run's stdout and write its checkpoint byte for byte.
// A run may exit 1 (the Flash tier died); any other failure is fatal.
func segmentedCampaign(t *testing.T, dir string, args []string, total int) (full, seg1, resumed campaignRun) {
	t.Helper()
	run := func(requests int, extra ...string) campaignRun {
		t.Helper()
		all := append(append(append([]string(nil), args...), "-requests", strconv.Itoa(requests)), extra...)
		code, stdout, stderr := cmdtest.RunIn(t, dir, all...)
		if code != 0 && code != 1 {
			t.Fatalf("fdcsim %s: exit code %d; stderr:\n%s", strings.Join(all, " "), code, stderr)
		}
		return campaignRun{code, stdout}
	}
	full = run(total, "-checkpoint-out", "full.ckpt")
	seg1 = run(total/2, "-checkpoint-out", "seg1.ckpt")
	resumed = run(total/2, "-checkpoint-in", "seg1.ckpt", "-checkpoint-out", "seg2.ckpt")
	diffLines(t, "resumed stdout", resumed.stdout, full.stdout)
	want, err := os.ReadFile(filepath.Join(dir, "full.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "seg2.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("the resumed run's checkpoint differs from the unbroken run's (%d vs %d bytes)", len(got), len(want))
	}
	return full, seg1, resumed
}

// TestSegmentedCampaign: a lifetime-style segment with faults, scrub,
// retention and disturb, at 1 and 2 shards, prints the same report and
// writes the same next checkpoint whether it runs 60k requests
// unbroken or 30k + checkpoint + restore + 30k. Resuming that
// checkpoint under different flags is refused.
func TestSegmentedCampaign(t *testing.T) {
	for _, shards := range []string{"1", "2"} {
		t.Run("shards="+shards, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			args := []string{"-workload", "Financial1", "-scale", "0.03125", "-dram", "4M", "-flash", "32M",
				"-seed", "7", "-shards", shards, "-wear-accel", "2000", "-scrub", "512",
				"-faults", "read=2e-3,program=1e-3,erase=1e-3,grown=0.2,seed=7",
				"-retention-accel", "5e4", "-disturb-reads", "20000", "-refresh-threshold", "0.75"}
			full, seg1, resumed := segmentedCampaign(t, dir, args, 60000)
			for _, r := range []campaignRun{full, seg1, resumed} {
				if r.code != 0 {
					t.Fatalf("exit code %d, want 0:\n%s", r.code, r.stdout)
				}
			}
			code, _, stderr := cmdtest.RunIn(t, dir, "-workload", "alpha1", "-scale", "0.03125", "-dram", "4M",
				"-flash", "32M", "-seed", "8", "-shards", shards, "-requests", "1000", "-checkpoint-in", "seg1.ckpt")
			if code != 1 || !strings.Contains(stderr, "configuration mismatch") {
				t.Fatalf("resume under different flags: exit code %d, want 1 with a configuration mismatch; stderr:\n%s", code, stderr)
			}
		})
	}
}

// TestSegmentedCampaignThroughWearOut: split and unified caches that
// are alive at the checkpoint and die in the second half, after
// hundreds of wear rotations and tens of thousands of scrub
// migrations, resume to the unbroken run's report and checkpoint. Both
// 200k-request runs report degraded service (exit 1, dead=true).
func TestSegmentedCampaignThroughWearOut(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode []string
	}{
		{"split", []string{"-wear-accel", "10000"}},
		{"unified", []string{"-wear-accel", "20000", "-unified"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			args := append([]string{"-workload", "alpha1", "-dram", "2M", "-flash", "8M", "-seed", "7", "-scrub", "16"}, tc.mode...)
			full, seg1, resumed := segmentedCampaign(t, t.TempDir(), args, 200000)
			for _, c := range []struct {
				what string
				run  campaignRun
				code int
				dead string
			}{
				{"unbroken run", full, 1, "dead=true"},
				{"first half", seg1, 0, "dead=false"},
				{"resumed half", resumed, 1, "dead=true"},
			} {
				if c.run.code != c.code || !strings.Contains(c.run.stdout, c.dead) {
					t.Errorf("%s: exit code %d, want %d with %s:\n%s", c.what, c.run.code, c.code, c.dead, c.run.stdout)
				}
			}
		})
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"flashdc/internal/hier"
)

// small returns s at 1/200 of its request count: long enough to fill
// the DRAM, GC the write region and cross obs snapshot intervals, short
// enough for the race detector.
func small(s spec) spec {
	s.Requests /= 200
	return s
}

// TestWorkloadsSmoke runs every workload through the untimed repeats
// and the traced ledger, which fail on any correctness or equality
// check.
func TestWorkloadsSmoke(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	for _, s := range specs {
		t.Run(s.Name, func(t *testing.T) {
			res, spans, err := measure(small(s), 1, 0, true)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("result %+v: want correct with no failures", res.line())
			}
			for _, d := range perLayer {
				if _, ok := res.Metrics[d.Name]; !ok {
					t.Errorf("per-layer metric %s missing", d.Name)
				}
			}
			layers := map[string]bool{}
			for _, sp := range spans {
				layers[sp.Layer] = true
				if sp.EndNS < sp.StartNS {
					t.Fatalf("span %+v ends before it starts", sp)
				}
			}
			for _, l := range []string{"engine", "trace", "hier", "dram", "core"} {
				if !layers[l] {
					t.Errorf("no %s span recorded", l)
				}
			}
		})
	}
}

func TestEndToEndRunReportsEveryMetric(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	res, _, err := measure(small(specs[0]), 2, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("result %+v: want correct", res.line())
	}
	for _, d := range endToEnd {
		if v, ok := res.Metrics[d.Name]; !ok || v.Unit != d.Unit {
			t.Errorf("metric %s = %+v, want one in %s", d.Name, v, d.Unit)
		}
	}
}

// TestLedgerDetectsPerturbedConfig replays the ledger with a system
// that differs from the engine's, which the equality gate must report
// at the layer that differs. The system is small enough for both
// caches to evict within a short trace, so that their sizes matter.
func TestLedgerDetectsPerturbedConfig(t *testing.T) {
	s := spec{Name: "pressured", Trace: "alpha1", Scale: 1.0 / 64, Requests: 20_000,
		DRAM: 256 << 10, Flash: 2 << 20, Shards: 1}
	tf, err := writeTrace(s, 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := runReplay(s, tf, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runLedger(s, tf, ref.eng); err != nil {
		t.Fatalf("unperturbed ledger: %v", err)
	}
	smallerDRAM, smallerFlash := s, s
	smallerDRAM.DRAM /= 2
	smallerFlash.Flash /= 2
	for _, c := range []struct {
		name  string
		s     spec
		layer string
	}{
		{"dram size", smallerDRAM, "layer dram "},
		{"flash size", smallerFlash, "layer core "},
	} {
		_, err := runLedger(c.s, tf, ref.eng)
		if err == nil || !strings.Contains(err.Error(), c.layer) {
			t.Errorf("%s perturbed: got %v, want a mismatch in %q", c.name, err, c.layer)
		}
	}
}

type forgedShard struct{ err, integrity error }

func (f forgedShard) Err() error            { return f.err }
func (f forgedShard) CheckIntegrity() error { return f.integrity }

func TestAuditReportsForgedFailures(t *testing.T) {
	bad := errors.New("forged")
	ok := forgedShard{}
	if err := audit([]auditable{ok, ok}); err != nil {
		t.Fatalf("healthy shards: %v", err)
	}
	for _, sh := range []forgedShard{{err: bad}, {integrity: bad}} {
		err := audit([]auditable{ok, sh})
		if !errors.Is(err, bad) || !strings.Contains(err.Error(), "shard 1") {
			t.Errorf("audit(%+v) = %v, want the forged error named at shard 1", sh, err)
		}
	}
}

func TestSameDigestRejectsMismatch(t *testing.T) {
	if err := sameDigest("a", "a", 1); err != nil {
		t.Fatalf("equal digests: %v", err)
	}
	if err := sameDigest("a", "b", 3); !errors.Is(err, errNondeterministic) {
		t.Fatalf("differing digests: got %v, want errNondeterministic", err)
	}
}

func TestCheckPagesRejectsMismatch(t *testing.T) {
	tf := traceFile{readPages: 10, writePages: 5}
	if err := checkPages(hier.Stats{ReadPages: 10, WritePages: 5}, tf); err != nil {
		t.Fatalf("matching pages: %v", err)
	}
	if err := checkPages(hier.Stats{ReadPages: 9, WritePages: 5}, tf); err == nil {
		t.Fatal("a lost page was not reported")
	}
}

func TestTallyCountsUnservedRequests(t *testing.T) {
	var res result
	res.tally(&replay{submitted: 10, replayed: 10})
	res.tally(&replay{submitted: 10, replayed: 7})
	if res.Attempted != 20 || res.Failed != 3 {
		t.Fatalf("tally: attempted %d failed %d, want 20 and 3", res.Attempted, res.Failed)
	}
}

// TestLiveHeapIndependentOfRequests checks that the trace stays out of
// the measured heap: on a workload whose working set fits the DRAM,
// ten times the requests must not grow live_heap_mb. A trace held in
// the Go heap would add 16 bytes per request.
func TestLiveHeapIndependentOfRequests(t *testing.T) {
	s := spec{Name: "fits", Trace: "alpha3", Scale: 1.0 / 512, DRAM: 2 << 20, Flash: 8 << 20, Shards: 1}
	heap := func(n int) uint64 {
		s.Requests = n
		tf, err := writeTrace(s, 1, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		r, err := runReplay(s, tf, false)
		if err != nil {
			t.Fatal(err)
		}
		return r.heapBytes
	}
	short, long := heap(20_000), heap(200_000)
	if grow := int64(long) - int64(short); grow > 256<<10 {
		t.Fatalf("live heap grew %d bytes from 20k to 200k requests (%d -> %d)", grow, short, long)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Fatalf("quartiles %v %v median %v, want 2.75 8.25 5.5", q1, q3, median(xs))
	}
	if p := percentile([]float64{4, 1, 3, 2}, 0.5); p != 2 {
		t.Fatalf("nearest-rank p50 = %v, want 2", p)
	}
}

func TestVerdict(t *testing.T) {
	ops := metricDef{Name: "replay_ops_per_s", Better: "higher", Bound: 0.10}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, by float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * by
		}
		return out
	}
	noisy := []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}
	for _, c := range []struct {
		name   string
		d      metricDef
		change []float64
		want   string
	}{
		{"faster", ops, shift(parent, 1.2), improved},
		{"same", ops, parent, unchanged},
		{"slightly slower", ops, shift(parent, 0.97), unchanged},
		{"much slower", ops, shift(parent, 0.8), regressed},
		{"too noisy", ops, noisy, unresolved},
		{"lower is better", metricDef{Better: "lower", Bound: 0.1}, shift(parent, 0.8), improved},
		{"layer worse", metricDef{Better: "lower"}, shift(parent, 1.2), regressed},
	} {
		if got, _, _ := verdict(c.d, parent, c.change); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	parent, change := filepath.Join(dir, "parent.jsonl"), filepath.Join(dir, "change.jsonl")
	for i := 0; i < 10; i++ {
		for path, ops := range map[string]float64{parent: 100 + float64(i%3), change: 150 + float64(i%3)} {
			r := result{Workload: specs[0].Name, Seed: uint64(i), Metrics: metricSet{
				"replay_ops_per_s": {Value: ops, Unit: "req/s"},
				"sim_write_amp":    {Value: 1.5, Unit: "ratio"},
			}}
			if err := appendJSON(path, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	var out bytes.Buffer
	if err := compareFiles(&out, parent, change); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"replay_ops_per_s", "improved", "sim_write_amp", "unchanged"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison lacks %q:\n%s", want, out.String())
		}
	}
	if err := compareFiles(&out, parent, filepath.Join(dir, "missing")); err == nil {
		t.Error("a missing file was not reported")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which the benchmark
// contract reads, in step with the workload and metric tables here,
// and within the contract's limits.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].Name || w.Why != specs[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, benchmark %q: %q", i, w, specs[i].Name, specs[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json: %+v\n code: %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json: %+v\n code: %+v", doc.PerLayer, perLayer)
	}

	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	maxBound := 0.0
	for _, d := range append(append([]metricDef(nil), doc.EndToEnd...), doc.PerLayer...) {
		if !nameRe.MatchString(d.Name) || !unitRe.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %+v: bad or repeated name or unit", d)
		}
		seen[d.Name] = true
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range doc.EndToEnd {
		if !(d.Bound > 0 && d.Bound <= 0.25) {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		maxBound = math.Max(maxBound, d.Bound)
	}
	if !seen["setup_s"] || doc.EndToEnd[1].Name != "setup_s" || doc.EndToEnd[1].Bound != maxBound {
		t.Error("setup_s must be an end-to-end metric with the largest bound")
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", doc.RunSeconds)
	}
	if budget := time.Duration(4+22*len(doc.Workloads)) * time.Duration(doc.RunSeconds) * time.Second; budget > 3420*time.Second {
		t.Errorf("%d runs of %d s exceed the time cap", 4+22*len(doc.Workloads), doc.RunSeconds)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" || doc.Command[1] != "bench/run.sh" {
		t.Errorf("command %q and paths %q must stay within bench/", doc.Command, doc.Paths)
	}
}

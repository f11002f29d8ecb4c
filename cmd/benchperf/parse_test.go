package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: flashdc
cpu: Intel(R) Xeon(R) CPU
BenchmarkCacheReadHit-8   	 8053717	       144.3 ns/op	       0 B/op	       0 allocs/op
BenchmarkCacheReadHit-8   	 9105490	       129.8 ns/op	       0 B/op	       0 allocs/op
BenchmarkCacheReadHit-8   	11341074	       129.1 ns/op	       0 B/op	       0 allocs/op
BenchmarkEngineReplay/shards=4-8         	      13	  88933655 ns/op	 2248863 ops/s	 6063104 B/op	    2189 allocs/op
BenchmarkEncodePage-8     	   77000	     15500 ns/op
PASS
ok  	flashdc	33.728s
`

func TestParse(t *testing.T) {
	sum, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if sum.GOOS != "linux" || sum.GOARCH != "amd64" || sum.CPU != "Intel(R) Xeon(R) CPU" {
		t.Errorf("header = %q/%q/%q", sum.GOOS, sum.GOARCH, sum.CPU)
	}
	if p := sum.Benchmarks[0].Procs; p != 8 {
		t.Errorf("procs = %d, want 8 (the -8 name suffix)", p)
	}
	if len(sum.Benchmarks) != 3 {
		t.Fatalf("got %d benchmarks, want 3: %+v", len(sum.Benchmarks), sum.Benchmarks)
	}
	// Sorted by name.
	if sum.Benchmarks[0].Name != "BenchmarkCacheReadHit" ||
		sum.Benchmarks[1].Name != "BenchmarkEncodePage" ||
		sum.Benchmarks[2].Name != "BenchmarkEngineReplay/shards=4" {
		t.Fatalf("names = %v %v %v", sum.Benchmarks[0].Name, sum.Benchmarks[1].Name, sum.Benchmarks[2].Name)
	}
	hit := sum.Benchmarks[0]
	if hit.Samples != 3 {
		t.Errorf("samples = %d, want 3", hit.Samples)
	}
	if hit.NsPerOp != 129.8 { // median of {144.3, 129.8, 129.1}
		t.Errorf("ns/op median = %v, want 129.8", hit.NsPerOp)
	}
	if hit.AllocsPerOp != 0 || hit.BPerOp != 0 {
		t.Errorf("benchmem medians = %v B, %v allocs; want 0, 0", hit.BPerOp, hit.AllocsPerOp)
	}
	// Sub-benchmark keeps its path, loses only the -8 suffix; the
	// custom ops/s column is read alongside the -benchmem ones.
	if rep := sum.Benchmarks[2]; rep.AllocsPerOp != 2189 || rep.OpsPerSec != 2248863 {
		t.Errorf("shards=4 = %+v, want 2189 allocs/op and 2248863 ops/s", rep)
	}
	if hit.OpsPerSec != 0 {
		t.Errorf("ops/s without the metric = %v, want 0", hit.OpsPerSec)
	}
	// -benchmem off: unit columns default to zero.
	if enc := sum.Benchmarks[1]; enc.NsPerOp != 15500 || enc.BPerOp != 0 {
		t.Errorf("EncodePage = %+v", enc)
	}
}

func TestParseEvenCountMedian(t *testing.T) {
	in := "BenchmarkX-4 100 10.0 ns/op\nBenchmarkX-4 100 20.0 ns/op\n"
	sum, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got := sum.Benchmarks[0].NsPerOp; got != 15.0 {
		t.Errorf("median of {10,20} = %v, want 15", got)
	}
}

func TestParseIgnoresNoise(t *testing.T) {
	in := `
BenchmarkBroken-8 not-a-number 5 ns/op
Benchmark this is prose, not a result
--- BENCH: BenchmarkVerbose-8
BenchmarkReal-8 100 42.0 ns/op 8 B/op 1 allocs/op
`
	sum, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Benchmarks) != 1 || sum.Benchmarks[0].Name != "BenchmarkReal" {
		t.Fatalf("benchmarks = %+v, want just BenchmarkReal", sum.Benchmarks)
	}
}

func TestTrimProcs(t *testing.T) {
	for in, want := range map[string]struct {
		name  string
		procs int
	}{
		"BenchmarkFoo-8":            {"BenchmarkFoo", 8},
		"BenchmarkFoo-128":          {"BenchmarkFoo", 128},
		"BenchmarkFoo":              {"BenchmarkFoo", 0},
		"BenchmarkFoo/shards=4-8":   {"BenchmarkFoo/shards=4", 8},
		"BenchmarkFoo/alpha-beta":   {"BenchmarkFoo/alpha-beta", 0},
		"BenchmarkFoo/alpha-beta-2": {"BenchmarkFoo/alpha-beta", 2},
	} {
		if name, procs := trimProcs(in); name != want.name || procs != want.procs {
			t.Errorf("trimProcs(%q) = %q, %d; want %q, %d", in, name, procs, want.name, want.procs)
		}
	}
}

func bench(name string, ns, allocs float64) Benchmark {
	return Benchmark{Name: name, Samples: 1, NsPerOp: ns, AllocsPerOp: allocs}
}

func TestCompareGate(t *testing.T) {
	base := Summary{Benchmarks: []Benchmark{
		bench("A", 100, 0),
		bench("B", 100, 10),
		bench("C", 100, 0),
		bench("Gone", 50, 0),
	}}
	cur := Summary{Benchmarks: []Benchmark{
		bench("A", 114, 0),  // +14% ns: within a 15% budget
		bench("B", 90, 120), // faster but 12x the allocations
		bench("C", 140, 0),  // +40% ns: regression
		bench("New", 10, 0), // not in baseline: reported, not gated
	}}
	rep := Compare(base, cur, 0.15)
	want := []string{"B", "C"}
	if len(rep.Regressions) != len(want) {
		t.Fatalf("regressions = %v, want %v\n%s", rep.Regressions, want, strings.Join(rep.Lines, "\n"))
	}
	for i, name := range want {
		if rep.Regressions[i] != name {
			t.Fatalf("regressions = %v, want %v", rep.Regressions, want)
		}
	}
}

func TestCompareThroughputGate(t *testing.T) {
	ops := func(name string, ns, ops float64) Benchmark {
		return Benchmark{Name: name, Samples: 1, NsPerOp: ns, OpsPerSec: ops}
	}
	base := Summary{Benchmarks: []Benchmark{
		ops("A", 100, 1000),
		ops("B", 100, 1000),
		ops("C", 100, 0), // baseline without the metric: not gated
		ops("D", 100, 1000),
	}}
	cur := Summary{Benchmarks: []Benchmark{
		ops("A", 100, 900), // -10%: within a 15% budget
		ops("B", 100, 700), // -30%: regression
		ops("C", 100, 10),
		ops("D", 100, 0), // metric dropped from the run: not gated
	}}
	rep := Compare(base, cur, 0.15)
	if len(rep.Regressions) != 1 || rep.Regressions[0] != "B" {
		t.Fatalf("regressions = %v, want [B]\n%s", rep.Regressions, strings.Join(rep.Lines, "\n"))
	}
}

func TestCompareAllocSlack(t *testing.T) {
	// One allocation of amortised rounding jitter is forgiven…
	base := Summary{Benchmarks: []Benchmark{bench("A", 100, 1070)}}
	cur := Summary{Benchmarks: []Benchmark{bench("A", 100, 1071)}}
	if rep := Compare(base, cur, 0.15); len(rep.Regressions) != 0 {
		t.Errorf("1070 -> 1071 allocs flagged: %v", rep.Lines)
	}
	// …but a 0-alloc baseline stays a hard gate past the slack.
	base = Summary{Benchmarks: []Benchmark{bench("A", 100, 0)}}
	cur = Summary{Benchmarks: []Benchmark{bench("A", 100, 2)}}
	if rep := Compare(base, cur, 0.15); len(rep.Regressions) != 1 {
		t.Errorf("0 -> 2 allocs not flagged: %v", rep.Lines)
	}
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Summary is the BENCH_hotpath.json schema: one median entry per
// benchmark, plus the environment header go test printed.
type Summary struct {
	Schema string `json:"schema"`
	GOOS   string `json:"goos,omitempty"`
	GOARCH string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// Benchmarks is sorted by name for stable diffs.
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Benchmark is the median of all -count repeats of one benchmark.
type Benchmark struct {
	// Name has the -<GOMAXPROCS> suffix stripped, so summaries from
	// machines with different core counts stay comparable.
	Name string `json:"name"`
	// Procs is the GOMAXPROCS the benchmark ran at (the stripped name
	// suffix; the host's CPU count unless overridden), which decides
	// whether the sharded replays could run in parallel.
	Procs int `json:"procs,omitempty"`
	// Samples is how many repeats the medians were taken over.
	Samples int `json:"samples"`
	// NsPerOp is the median ns/op; BPerOp and AllocsPerOp the median
	// -benchmem columns (zero when -benchmem was off).
	NsPerOp     float64 `json:"ns_per_op"`
	BPerOp      float64 `json:"b_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// OpsPerSec is the median of the custom "ops/s" throughput metric
	// (b.ReportMetric); zero when the benchmark does not report one.
	OpsPerSec float64 `json:"ops_per_sec,omitempty"`
}

// schemaID versions the summary layout for future readers.
const schemaID = "flashdc-benchperf/v1"

// sample is one benchmark result line before aggregation.
type sample struct {
	ns, bytes, allocs, ops float64
}

// Parse reads `go test -bench` text output and collapses repeated runs
// of each benchmark to their medians. Lines that are not benchmark
// results or recognised header lines are ignored, so piping a whole
// test log through is fine.
func Parse(r io.Reader) (Summary, error) {
	sum := Summary{Schema: schemaID}
	samples := map[string][]sample{}
	procsOf := map[string]int{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			sum.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			sum.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			sum.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		name, procs, s, ok := parseResultLine(line)
		if !ok {
			continue
		}
		procsOf[name] = procs
		samples[name] = append(samples[name], s)
	}
	if err := sc.Err(); err != nil {
		return Summary{}, err
	}
	for name, ss := range samples {
		sum.Benchmarks = append(sum.Benchmarks, Benchmark{
			Name:        name,
			Procs:       procsOf[name],
			Samples:     len(ss),
			NsPerOp:     median(ss, func(s sample) float64 { return s.ns }),
			BPerOp:      median(ss, func(s sample) float64 { return s.bytes }),
			AllocsPerOp: median(ss, func(s sample) float64 { return s.allocs }),
			OpsPerSec:   median(ss, func(s sample) float64 { return s.ops }),
		})
	}
	sort.Slice(sum.Benchmarks, func(i, j int) bool {
		return sum.Benchmarks[i].Name < sum.Benchmarks[j].Name
	})
	return sum, nil
}

// parseResultLine decodes one benchmark result line:
//
//	BenchmarkName-8   123456   101.5 ns/op   32 B/op   1 allocs/op
//
// The iteration count is mandatory; the unit columns are read by their
// suffix so extra metrics (MB/s, custom units) do not break parsing.
func parseResultLine(line string) (string, int, sample, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return "", 0, sample{}, false
	}
	name, procs := trimProcs(fields[0])
	if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
		return "", 0, sample{}, false
	}
	var s sample
	seenNs := false
	for i := 2; i+1 < len(fields); i++ {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			s.ns, seenNs = v, true
		case "B/op":
			s.bytes = v
		case "allocs/op":
			s.allocs = v
		case "ops/s":
			s.ops = v
		}
	}
	if !seenNs {
		return "", 0, sample{}, false
	}
	return name, procs, s, true
}

// trimProcs drops the trailing -<GOMAXPROCS> go test appends to
// benchmark names, leaving sub-benchmark paths intact, and returns it
// (0 when absent).
func trimProcs(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name, 0
	}
	procs, err := strconv.Atoi(name[i+1:])
	if err != nil {
		return name, 0
	}
	return name[:i], procs
}

func median(ss []sample, get func(sample) float64) float64 {
	vs := make([]float64, len(ss))
	for i, s := range ss {
		vs[i] = get(s)
	}
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// LoadSummary reads a committed baseline file.
func LoadSummary(path string) (Summary, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return Summary{}, err
	}
	var sum Summary
	if err := json.Unmarshal(blob, &sum); err != nil {
		return Summary{}, fmt.Errorf("%s: %w", path, err)
	}
	return sum, nil
}

// Report is the outcome of one baseline comparison.
type Report struct {
	// Regressions names the benchmarks that blew the budget.
	Regressions []string
	// Lines is the human-readable per-benchmark breakdown.
	Lines []string
}

// Compare gates cur against base. A benchmark fails when its ns/op
// grew by more than threshold relative to the baseline, when its
// allocs/op exceed the baseline by more than one allocation and the
// threshold fraction (the absolute slack forgives amortised map/slab
// growth rounding; a 0-alloc baseline therefore stays a hard gate
// against reintroducing steady allocations), or when its reported
// ops/s throughput dropped by more than the threshold (gated only
// when both sides report the metric — higher is better, so the sign
// is inverted relative to ns/op). Benchmarks present on only one side
// are listed but never fail.
func Compare(base, cur Summary, threshold float64) Report {
	var rep Report
	baseBy := map[string]Benchmark{}
	for _, b := range base.Benchmarks {
		baseBy[b.Name] = b
	}
	curSeen := map[string]bool{}
	for _, c := range cur.Benchmarks {
		curSeen[c.Name] = true
		b, ok := baseBy[c.Name]
		if !ok {
			rep.Lines = append(rep.Lines, fmt.Sprintf("  new   %s: %.1f ns/op (no baseline)", c.Name, c.NsPerOp))
			continue
		}
		delta := 0.0
		if b.NsPerOp > 0 {
			delta = c.NsPerOp/b.NsPerOp - 1
		}
		status := "ok"
		if delta > threshold {
			status = "REGRESSED"
			rep.Regressions = append(rep.Regressions, c.Name)
		} else if c.AllocsPerOp > b.AllocsPerOp+1 && c.AllocsPerOp > b.AllocsPerOp*(1+threshold) {
			status = "REGRESSED(allocs)"
			rep.Regressions = append(rep.Regressions, c.Name)
		} else if b.OpsPerSec > 0 && c.OpsPerSec > 0 && c.OpsPerSec < b.OpsPerSec*(1-threshold) {
			status = "REGRESSED(ops/s)"
			rep.Regressions = append(rep.Regressions, c.Name)
		}
		line := fmt.Sprintf(
			"  %-18s %s: %.1f -> %.1f ns/op (%+.1f%%), %g -> %g allocs/op",
			status, c.Name, b.NsPerOp, c.NsPerOp, delta*100, b.AllocsPerOp, c.AllocsPerOp)
		if b.OpsPerSec > 0 || c.OpsPerSec > 0 {
			line += fmt.Sprintf(", %.0f -> %.0f ops/s", b.OpsPerSec, c.OpsPerSec)
		}
		rep.Lines = append(rep.Lines, line)
	}
	for _, b := range base.Benchmarks {
		if !curSeen[b.Name] {
			rep.Lines = append(rep.Lines, fmt.Sprintf("  gone  %s: in baseline but not in this run", b.Name))
		}
	}
	sort.Strings(rep.Regressions)
	return rep
}

package main

import (
	"fmt"
	"io"
	"sort"
)

// metricDef describes one reported metric. BENCHMARK.json lists the
// same table; TestBenchmarkJSONMatches keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, reported with
// -trace 0. Host metrics are medians over the run's repeats; sim_*
// metrics are simulated results, identical on every repeat of a
// (workload, seed) pair.
var endToEnd = []metricDef{
	{"replay_ops_per_s", "req/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"live_heap_mb", "MiB", "lower", 0.10},
	{"sim_flash_hit_rate", "fraction", "higher", 0.02},
	{"sim_mean_latency_us", "us", "lower", 0.02},
	{"sim_erases_per_mreq", "erases/Mreq", "lower", 0.15},
	{"sim_write_amp", "ratio", "lower", 0.05},
}

// perLayer are the layer metrics of the traced run, reported with
// -trace 1. Host times come from the isolation ledger (ledger.go);
// counters come from the engine's public Stats, as rates per 1000
// requests where marked.
var perLayer = []metricDef{
	{"trace.decode_ns_per_req", "ns/req", "lower", 0},
	{"engine.self_ns_per_req", "ns/req", "lower", 0},
	{"engine.parallel_efficiency", "fraction", "higher", 0},
	{"engine.batch_p50_ms", "ms", "lower", 0},
	{"engine.batch_p99_ms", "ms", "lower", 0},
	{"engine.shard_skew", "ratio", "lower", 0},
	{"hier.self_ns_per_req", "ns/req", "lower", 0},
	{"dram.ns_per_req", "ns/req", "lower", 0},
	{"dram.hit_rate", "fraction", "higher", 0},
	{"dram.writebacks_per_kreq", "1/kreq", "lower", 0},
	{"core.ns_per_req", "ns/req", "lower", 0},
	{"core.ns_per_op", "ns/op", "lower", 0},
	{"core.fills_per_kreq", "1/kreq", "lower", 0},
	{"core.evictions_per_kreq", "1/kreq", "lower", 0},
	{"core.gc_runs_per_kreq", "1/kreq", "lower", 0},
	{"core.gc_relocations_per_run", "pages/run", "lower", 0},
	{"core.gc_time_frac", "fraction", "lower", 0},
	{"core.promotions", "count", "lower", 0},
	{"core.wear_swaps", "count", "lower", 0},
	{"core.ecc_reconfigs", "count", "lower", 0},
	{"core.density_reconfigs", "count", "lower", 0},
	{"core.admit_rejects", "count", "lower", 0},
	{"core.write_arounds", "count", "lower", 0},
	{"core.gc_deferred", "count", "lower", 0},
	{"core.throttle_flips", "count", "lower", 0},
	{"nand.reads_per_kreq", "1/kreq", "lower", 0},
	{"nand.programs_per_kreq", "1/kreq", "lower", 0},
	{"nand.busy_ms", "ms", "lower", 0},
	{"sched.chan_waits", "count", "lower", 0},
	{"sched.chan_queue", "cmds", "lower", 0},
	{"sched.bank_conflicts", "count", "lower", 0},
	{"sched.bank_queue", "cmds", "lower", 0},
	{"sched.forced_flushes", "count", "lower", 0},
	{"sched.coalesced_frac", "fraction", "higher", 0},
	{"disk.reads_per_kreq", "1/kreq", "lower", 0},
	{"disk.writes_per_kreq", "1/kreq", "lower", 0},
	{"obs.overhead_frac", "fraction", "lower", 0},
	{"obs.snapshots", "count", "lower", 0},
	{"obs.events", "count", "lower", 0},
	{"obs.dropped_events", "count", "lower", 0},
	{"bench.trace_overhead_frac", "fraction", "lower", 0},
}

// metricValue is one reported number, as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's values by metric name.
type metricSet map[string]metricValue

// fill returns the values of defs taken from vals, failing on a
// metric the run did not produce.
func fill(defs []metricDef, vals map[string]float64) (metricSet, error) {
	out := make(metricSet, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// printTable writes one "name value unit" line per metric of defs.
func printTable(w io.Writer, defs []metricDef, m metricSet) {
	for _, d := range defs {
		if v, ok := m[d.Name]; ok {
			fmt.Fprintf(w, "  %-30s %16.6g %s\n", d.Name, v.Value, v.Unit)
		}
	}
}

// median returns the middle of xs (the mean of the middle two for an
// even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the
// exclusive method of Python's statistics.quantiles(xs, n=4), the
// rule the benchmark's spread is judged by. Fewer than two values
// give that value for both.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
)

// FinalSeq is the Seq value of the final end-of-run snapshot, kept
// distinct from interval sequence numbers (0, 1, 2, ...).
const FinalSeq int64 = -1

// series is the ordered list of series names one observer's collectors
// report, per kind, with each histogram's bounds. The observer's first
// snapshot records it; every later snapshot shares it and stores
// values only, slot by slot in this order. It is never modified after
// the first snapshot.
type series struct {
	counters, gauges, histograms []string
	// bounds holds each histogram's bucket bounds, by slot.
	bounds [][]int64
}

// zero returns a row of the series' shape whose values are all zero.
func (s *series) zero() Snapshot {
	z := Snapshot{names: s,
		counters:   make([]int64, len(s.counters)),
		gauges:     make([]float64, len(s.gauges)),
		histograms: make([]HistogramSnapshot, len(s.histograms)),
	}
	for i, b := range s.bounds {
		z.histograms[i] = HistogramSnapshot{Bounds: b, Buckets: make([]int64, len(b)+1)}
	}
	return z
}

func (s *series) equal(o *series) bool {
	return s == o || s != nil && o != nil &&
		slices.Equal(s.counters, o.counters) &&
		slices.Equal(s.gauges, o.gauges) &&
		slices.Equal(s.histograms, o.histograms)
}

// Snapshot is one cumulative capture of an observer's collectors as of
// simulated time T: a row of counter, gauge and histogram values whose
// names the shared series holds. Every Snapshot an observer hands out
// (Live, Snapshots) is the caller's own; Merge writes into the
// receiver's values, so merge into a Clone of a row that is still
// needed as it was. Snapshots merge across shards
// slot by slot; the `merge` tags document Merge for the reflection
// test that keeps this struct and Merge honest.
type Snapshot struct {
	// Seq is the interval index (0, 1, 2, ...), or FinalSeq for the
	// end-of-run snapshot. Identical across the shards being merged.
	Seq int64 `merge:"keep"`
	// T is the simulated timestamp in nanoseconds: the nominal interval
	// boundary for interval snapshots, and the furthest shard clock for
	// merged final snapshots.
	T int64 `merge:"max"`
	// Final marks the end-of-run snapshot.
	Final bool `merge:"keep"`

	// names is shared by every row of one observer.
	names *series `merge:"keep"`
	// counters hold the cumulative counter series, summed across
	// shards.
	counters []int64
	// gauges hold the point-in-time series; per-shard gauges are sums
	// of shard-local quantities (valid pages, queue depths), so merging
	// sums them too.
	gauges []float64
	// histograms hold the fixed-bound histogram series, merged
	// bucket-wise.
	histograms []HistogramSnapshot
}

// Counter returns the named counter's value, 0 when the snapshot has
// no such series.
func (s *Snapshot) Counter(name string) int64 { return s.view().Counters[name] }

// Gauge returns the named gauge's value, 0 when the snapshot has no
// such series.
func (s *Snapshot) Gauge(name string) float64 { return s.view().Gauges[name] }

// HistogramSnapshot is a histogram's cumulative state: Buckets[i]
// counts observations <= Bounds[i], with Buckets[len(Bounds)] the +Inf
// overflow bucket.
type HistogramSnapshot struct {
	// Bounds are the inclusive upper bucket limits; identical across
	// the shards being merged, and never modified, so copies share
	// them.
	Bounds []int64 `json:"bounds" merge:"keep"`
	// Buckets are the per-bucket observation counts (one longer than
	// Bounds), summed across shards.
	Buckets []int64 `json:"buckets"`
	// Count is the total observation count.
	Count int64 `json:"count"`
	// Sum is the sum of all observed values.
	Sum int64 `json:"sum"`
}

// Merge folds other into h bucket-wise. Mismatched bounds (which only
// a bug can produce — instrument names determine bounds) merge by
// Count/Sum only, keeping h's buckets.
func (h *HistogramSnapshot) Merge(other HistogramSnapshot) {
	h.Count += other.Count
	h.Sum += other.Sum
	if len(h.Buckets) == len(other.Buckets) {
		for i := range h.Buckets {
			h.Buckets[i] += other.Buckets[i]
		}
	}
}

// Clone returns a copy with its own buckets; the immutable bounds are
// shared.
func (h HistogramSnapshot) Clone() HistogramSnapshot {
	h.Buckets = slices.Clone(h.Buckets)
	return h
}

// Merge folds other into s slot by slot: counters and gauges sum,
// histograms merge bucket-wise, T takes the maximum (for final
// snapshots, the furthest shard clock). Both snapshots must report the
// same series — every shard of one engine shares one configuration —
// and Merge panics when they do not.
func (s *Snapshot) Merge(other Snapshot) {
	if !s.names.equal(other.names) {
		panic("obs: merging snapshots of different series")
	}
	s.T = max(s.T, other.T)
	for i, v := range other.counters {
		s.counters[i] += v
	}
	for i, v := range other.gauges {
		s.gauges[i] += v
	}
	for i, h := range other.histograms {
		s.histograms[i].Merge(h)
	}
}

// Clone returns a copy whose values may be merged into without
// touching s.
func (s Snapshot) Clone() Snapshot {
	s.counters = slices.Clone(s.counters)
	s.gauges = slices.Clone(s.gauges)
	s.histograms = slices.Clone(s.histograms)
	for i, h := range s.histograms {
		s.histograms[i] = h.Clone()
	}
	return s
}

// MergeSnapshots folds per-shard snapshot series into one series: for
// each interval index the shards' snapshots merge into one (shards are
// folded in argument order — shard index order from the engine — so
// the result is scheduling-independent), and the shards' final
// snapshots merge into one trailing final snapshot. A shard whose run
// ended before an interval boundary simply stops contributing; the
// merged series keeps every Seq any shard reached. It writes into
// none of its arguments' rows.
func MergeSnapshots(series ...[]Snapshot) []Snapshot {
	return mergeSnapshots(series, Snapshot.Clone)
}

// mergeSnapshots is MergeSnapshots, keeping keep(s) as the merged row
// of the first row s of each Seq: a Clone, or s itself when the caller
// owns every row and no two rows share values.
func mergeSnapshots(series [][]Snapshot, keep func(Snapshot) Snapshot) []Snapshot {
	var intervals []Snapshot
	var final *Snapshot
	for _, shard := range series {
		for _, s := range shard {
			if s.Seq == FinalSeq {
				if final == nil {
					c := keep(s)
					final = &c
				} else {
					final.Merge(s)
				}
				continue
			}
			if s.Seq == int64(len(intervals)) {
				intervals = append(intervals, keep(s))
			} else {
				intervals[s.Seq].Merge(s)
			}
		}
	}
	if final != nil {
		intervals = append(intervals, *final)
	}
	return intervals
}

// view is the name-keyed rendering of a snapshot that both the JSONL
// writer and the Prometheus exposition read. Names are attached here,
// at write time, and nowhere on the snapshot path.
type view struct {
	Seq        int64                        `json:"seq"`
	T          int64                        `json:"t"`
	Final      bool                         `json:"final,omitempty"`
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

func (s *Snapshot) view() view {
	v := view{Seq: s.Seq, T: s.T, Final: s.Final}
	if n := s.names; n != nil {
		v.Counters = keyed(n.counters, s.counters)
		v.Gauges = keyed(n.gauges, s.gauges)
		v.Histograms = keyed(n.histograms, s.histograms)
	}
	return v
}

func keyed[V any](names []string, values []V) map[string]V {
	m := make(map[string]V, len(names))
	for i, name := range names {
		m[name] = values[i]
	}
	return m
}

// MarshalJSON renders the snapshot as one object with name-keyed
// counters, gauges and histograms; encoding/json sorts map keys, so
// equal snapshots render to equal bytes.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.view())
}

// Sample is the sink a collector folds a component's counters into.
// During an observer's first snapshot it records each series name in
// the order reported; afterwards it checks every name against that
// order and stores the value in its slot.
type Sample struct {
	snap   *Snapshot
	record bool
}

// Counter stores v as the named cumulative series.
func (s *Sample) Counter(name string, v int64) {
	s.check("counter", &s.snap.names.counters, len(s.snap.counters), name)
	s.snap.counters = append(s.snap.counters, v)
}

// Gauge stores v as the named point-in-time series (per-shard gauges
// sum across shards in merged snapshots).
func (s *Sample) Gauge(name string, v float64) {
	s.check("gauge", &s.snap.names.gauges, len(s.snap.gauges), name)
	s.snap.gauges = append(s.snap.gauges, v)
}

// Histogram stores a copy of hs's buckets as the named histogram
// series, into the row's existing bucket slice when the row buffer
// has one; the bounds are shared and must never be modified. It lets a
// component that already maintains its own distribution (for example
// the hierarchy's latency profile) publish it at snapshot time with
// zero hot-path cost. hs must have one bucket more than it has bounds,
// and every later snapshot must report the bounds the first one did.
func (s *Sample) Histogram(name string, hs HistogramSnapshot) {
	i := len(s.snap.histograms)
	names := s.snap.names
	s.check("histogram", &names.histograms, i, name)
	if len(hs.Buckets) != len(hs.Bounds)+1 {
		panic(fmt.Sprintf("obs: histogram %q reported %d buckets for %d bounds",
			name, len(hs.Buckets), len(hs.Bounds)))
	}
	if s.record {
		names.bounds = append(names.bounds, hs.Bounds)
	} else if !slices.Equal(hs.Bounds, names.bounds[i]) {
		panic(fmt.Sprintf("obs: histogram %q reported bounds %v, which the first snapshot gave as %v",
			name, hs.Bounds, names.bounds[i]))
	}
	if i < cap(s.snap.histograms) {
		hs.Buckets = append(s.snap.histograms[:i+1][i].Buckets[:0], hs.Buckets...)
	} else {
		hs = hs.Clone()
	}
	s.snap.histograms = append(s.snap.histograms, hs)
}

// check records name as the next series of its kind on the first
// snapshot, and afterwards verifies it is the series in slot i.
func (s *Sample) check(kind string, names *[]string, i int, name string) {
	if s.record {
		if slices.Contains(*names, name) {
			panic(fmt.Sprintf("obs: %s %q reported twice in one snapshot", kind, name))
		}
		*names = append(*names, name)
		return
	}
	switch {
	case i >= len(*names):
		panic(fmt.Sprintf("obs: %s %q is not in the first snapshot's series", kind, name))
	case (*names)[i] != name:
		panic(fmt.Sprintf("obs: %s %q reported in slot %d, which the first snapshot gave to %q",
			kind, name, i, (*names)[i]))
	}
}

// missing panics when a later snapshot reported only got of a kind's
// series names.
func missing(kind string, names []string, got int) {
	if got < len(names) {
		panic(fmt.Sprintf("obs: %s %q missing from a later snapshot", kind, names[got]))
	}
}

// LatencyBounds returns the standard request-latency bucket bounds in
// nanoseconds (10µs to 100ms, roughly logarithmic) used by the
// hierarchy's page-latency histogram.
func LatencyBounds() []int64 {
	return []int64{
		10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
		1_000_000, 2_500_000, 5_000_000, 10_000_000, 25_000_000,
		50_000_000, 100_000_000,
	}
}

// WriteSnapshotsJSONL writes one JSON object per snapshot, one per
// line. encoding/json sorts map keys, so for deterministic snapshot
// contents the bytes are deterministic too.
func WriteSnapshotsJSONL(w io.Writer, snaps []Snapshot) error {
	enc := json.NewEncoder(w)
	for i := range snaps {
		if err := enc.Encode(&snaps[i]); err != nil {
			return err
		}
	}
	return nil
}

// WriteEventsJSONL writes one JSON object per event, one per line.
func WriteEventsJSONL(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return err
		}
	}
	return nil
}

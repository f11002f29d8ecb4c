package obs

import (
	"bytes"
	"strings"
	"testing"

	"flashdc/internal/sim"
)

func TestRegistryCollectors(t *testing.T) {
	r := NewRegistry()
	r.RegisterCollector(func(s *Sample) {
		s.Counter("live_total", 3)
		s.Histogram("lat", HistogramSnapshot{Bounds: []int64{10}, Buckets: []int64{1, 0}, Count: 1, Sum: 4})
	})
	r.RegisterCollector(func(s *Sample) {
		s.Counter("sampled_total", 7)
		s.Counter("live_total", 2) // accumulates with the first collector's add
		s.Gauge("valid", 11)
		s.Histogram("lat", HistogramSnapshot{Bounds: []int64{10}, Buckets: []int64{0, 2}, Count: 2, Sum: 30})
	})
	s := r.Snapshot(4, 99, true)
	if s.Seq != 4 || s.T != 99 || !s.Final {
		t.Fatalf("identity fields: %+v", s)
	}
	if s.Counters["sampled_total"] != 7 || s.Counters["live_total"] != 5 {
		t.Fatalf("counters: %v", s.Counters)
	}
	if s.Gauges["valid"] != 11 {
		t.Fatalf("gauges: %v", s.Gauges)
	}
	if h := s.Histograms["lat"]; h.Count != 3 || h.Sum != 34 || h.Buckets[0] != 1 || h.Buckets[1] != 2 {
		t.Fatalf("histogram: %+v", h)
	}
}

func TestTracerRingOverflow(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 5; i++ {
		tr.record(Event{T: int64(i), Kind: KindGCStart, Block: i})
	}
	evs := tr.Events()
	if len(evs) != 3 || tr.Dropped() != 2 {
		t.Fatalf("len=%d dropped=%d", len(evs), tr.Dropped())
	}
	// Oldest two were overwritten; survivors keep arrival order and
	// their monotone per-shard sequence numbers.
	for i, e := range evs {
		if e.Block != i+2 || e.Seq != uint64(i+2) {
			t.Fatalf("event %d: %+v", i, e)
		}
	}
}

func TestMergeEventsOrdering(t *testing.T) {
	a := []Event{{T: 5, Shard: 0, Seq: 0}, {T: 9, Shard: 0, Seq: 1}}
	b := []Event{{T: 5, Shard: 1, Seq: 0}, {T: 2, Shard: 1, Seq: 1}}
	got := MergeEvents(a, b)
	want := []struct {
		t     int64
		shard int
	}{{2, 1}, {5, 0}, {5, 1}, {9, 0}}
	for i, w := range want {
		if got[i].T != w.t || got[i].Shard != w.shard {
			t.Fatalf("merged[%d] = %+v, want T=%d shard=%d", i, got[i], w.t, w.shard)
		}
	}
}

func TestSnapshotMergeAndClone(t *testing.T) {
	a := Snapshot{Seq: 1, T: 10,
		Counters:   map[string]int64{"x": 1},
		Gauges:     map[string]float64{"g": 2},
		Histograms: map[string]HistogramSnapshot{"h": {Bounds: []int64{5}, Buckets: []int64{1, 0}, Count: 1, Sum: 3}}}
	c := a.Clone()
	b := Snapshot{Seq: 1, T: 25,
		Counters:   map[string]int64{"x": 4, "y": 9},
		Histograms: map[string]HistogramSnapshot{"h": {Bounds: []int64{5}, Buckets: []int64{0, 2}, Count: 2, Sum: 20}}}
	a.Merge(b)
	if a.T != 25 || a.Counters["x"] != 5 || a.Counters["y"] != 9 || a.Gauges["g"] != 2 {
		t.Fatalf("merged: %+v", a)
	}
	h := a.Histograms["h"]
	if h.Count != 3 || h.Sum != 23 || h.Buckets[0] != 1 || h.Buckets[1] != 2 {
		t.Fatalf("merged histogram: %+v", h)
	}
	// The clone must be unaffected by merging into the original.
	if c.Counters["x"] != 1 || c.Histograms["h"].Count != 1 {
		t.Fatalf("clone aliased the original: %+v", c)
	}
}

func TestMergeSnapshotsSeries(t *testing.T) {
	shard0 := []Snapshot{
		{Seq: 0, T: 100, Counters: map[string]int64{"x": 1}},
		{Seq: 1, T: 200, Counters: map[string]int64{"x": 3}},
		{Seq: FinalSeq, T: 250, Final: true, Counters: map[string]int64{"x": 4}},
	}
	shard1 := []Snapshot{ // ended before interval 1
		{Seq: 0, T: 100, Counters: map[string]int64{"x": 10}},
		{Seq: FinalSeq, T: 130, Final: true, Counters: map[string]int64{"x": 11}},
	}
	got := MergeSnapshots(shard0, shard1)
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	if got[0].Counters["x"] != 11 || got[1].Counters["x"] != 3 {
		t.Fatalf("intervals: %+v", got[:2])
	}
	fin := got[2]
	if !fin.Final || fin.Seq != FinalSeq || fin.Counters["x"] != 15 || fin.T != 250 {
		t.Fatalf("final: %+v", fin)
	}
}

func TestObserverIntervalSnapshots(t *testing.T) {
	var clk sim.Clock
	o := New(Options{Metrics: true, MetricsInterval: 100, Trace: true})
	o.SetClock(&clk)
	o.SetShard(2)
	var ops int64
	o.RegisterCollector(func(s *Sample) { s.Counter("ops_total", ops) })

	ops++
	clk.Advance(sim.Duration(150)) // crosses boundary at t=100
	o.MaybeSnapshot(clk.Now())
	ops++
	clk.Advance(sim.Duration(200)) // crosses t=200 and t=300
	o.MaybeSnapshot(clk.Now())
	o.Event(Event{Kind: KindGCStart, Block: 1})
	o.Finish()
	o.Finish() // idempotent: replaces, not appends

	snaps := o.Snapshots()
	if len(snaps) != 4 {
		t.Fatalf("snapshots = %d, want 3 intervals + 1 final", len(snaps))
	}
	// Interval snapshots stamp the nominal boundary, not the clock.
	for i, wantT := range []int64{100, 200, 300} {
		if snaps[i].Seq != int64(i) || snaps[i].T != wantT {
			t.Fatalf("snap %d: seq=%d t=%d", i, snaps[i].Seq, snaps[i].T)
		}
	}
	if snaps[0].Counters["ops_total"] != 1 || snaps[2].Counters["ops_total"] != 2 {
		t.Fatalf("cumulative counters: %v then %v", snaps[0].Counters, snaps[2].Counters)
	}
	fin := snaps[3]
	if fin.Seq != FinalSeq || !fin.Final || fin.T != 350 {
		t.Fatalf("final: %+v", fin)
	}
	evs := o.Trace.Events()
	if len(evs) != 1 || evs[0].Shard != 2 || evs[0].T != 350 {
		t.Fatalf("event stamping: %+v", evs)
	}
	if o.Live() == nil || o.Live().Seq != FinalSeq {
		t.Fatal("Live must expose the latest published snapshot")
	}
}

func TestNilObserverIsNoOp(t *testing.T) {
	var o *Observer
	if o.Enabled() {
		t.Fatal("nil observer enabled")
	}
	// None of these may panic.
	o.SetShard(1)
	o.SetClock(nil)
	o.Event(Event{Kind: KindGCStart})
	o.RegisterCollector(func(*Sample) {})
	o.MaybeSnapshot(0)
	o.Finish()
	if o.Snapshots() != nil || o.Live() != nil {
		t.Fatal("nil observer must read as empty")
	}
	var tr *Tracer
	if tr.Events() != nil || tr.Dropped() != 0 {
		t.Fatal("nil tracer must read as empty")
	}
}

func TestBuildReport(t *testing.T) {
	mk := func(shard int, now sim.Time) *Observer {
		var clk sim.Clock
		clk.Advance(sim.Duration(now))
		o := New(Options{Metrics: true, Trace: true, TraceCapacity: 8})
		o.SetClock(&clk)
		o.SetShard(shard)
		o.RegisterCollector(func(s *Sample) { s.Counter("n_total", int64(shard+1)) })
		o.Event(Event{Kind: KindShardMerge, Block: -1})
		return o
	}
	a, b := mk(0, 300), mk(1, 120)
	rep := BuildReport(a, b)
	if len(rep.Snapshots) != 1 {
		t.Fatalf("snapshots: %+v", rep.Snapshots)
	}
	fin := rep.Snapshots[0]
	if fin.Counters["n_total"] != 3 || fin.T != 300 || !fin.Final {
		t.Fatalf("merged final: %+v", fin)
	}
	if len(rep.Events) != 2 || rep.Events[0].Shard != 1 || rep.Events[1].Shard != 0 {
		t.Fatalf("events must sort by simulated time: %+v", rep.Events)
	}
}

func TestWritePrometheus(t *testing.T) {
	s := &Snapshot{T: 42,
		Counters:   map[string]int64{"b_total": 2, "a_total": 1},
		Gauges:     map[string]float64{"valid": 7},
		Histograms: map[string]HistogramSnapshot{"lat": {Bounds: []int64{10}, Buckets: []int64{3, 1}, Count: 4, Sum: 25}}}
	var buf bytes.Buffer
	WritePrometheus(&buf, s)
	out := buf.String()
	if strings.Index(out, "a_total 1") > strings.Index(out, "b_total 2") {
		t.Fatalf("names must be sorted:\n%s", out)
	}
	for _, want := range []string{
		"# TYPE a_total counter",
		"# TYPE valid gauge",
		"# TYPE lat histogram",
		`lat_bucket{le="10"} 3`,
		`lat_bucket{le="+Inf"} 4`,
		"lat_sum 25",
		"lat_count 4",
		"sim_time_ns 42",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	buf.Reset()
	WritePrometheus(&buf, nil)
	if !strings.Contains(buf.String(), "no snapshot") {
		t.Fatal("nil snapshot must render a comment, not panic")
	}
}

func TestJSONLWritersDeterministic(t *testing.T) {
	snaps := []Snapshot{{Seq: 0, T: 1, Counters: map[string]int64{"b": 2, "a": 1}}}
	var x, y bytes.Buffer
	if err := WriteSnapshotsJSONL(&x, snaps); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshotsJSONL(&y, snaps); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(x.Bytes(), y.Bytes()) {
		t.Fatal("snapshot JSONL must be byte-stable")
	}
	if !strings.Contains(x.String(), `"counters":{"a":1,"b":2}`) {
		t.Fatalf("map keys must serialise sorted: %s", x.String())
	}
}

package obs

import (
	"bytes"
	"strings"
	"testing"

	"flashdc/internal/sim"
)

// observe builds a metrics observer with the given collectors.
func observe(collectors ...func(*Sample)) *Observer {
	o := New(Options{Metrics: true})
	for _, f := range collectors {
		o.RegisterCollector(f)
	}
	return o
}

// mustPanic runs f and fails unless it panics with a message holding
// want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want one naming %q", r, want)
		}
	}()
	f()
}

func TestObserverCollectors(t *testing.T) {
	lat := HistogramSnapshot{Bounds: []int64{10}, Buckets: []int64{1, 2}, Count: 3, Sum: 34}
	var n int64 = 3
	o := observe(func(s *Sample) {
		s.Counter("live_total", n)
		s.Histogram("lat", lat)
	}, func(s *Sample) {
		s.Counter("sampled_total", 7)
		s.Gauge("valid", 11)
	})
	o.Finish()
	first := *o.Live()
	if first.Seq != FinalSeq || !first.Final {
		t.Fatalf("identity fields: %+v", first)
	}
	if first.Counter("sampled_total") != 7 || first.Counter("live_total") != 3 || first.Counter("absent") != 0 {
		t.Fatalf("counters: %+v", first)
	}
	if first.Gauge("valid") != 11 {
		t.Fatalf("gauges: %+v", first)
	}
	if h := first.histograms[0]; h.Count != 3 || h.Sum != 34 || h.Buckets[0] != 1 || h.Buckets[1] != 2 {
		t.Fatalf("histogram: %+v", h)
	}
	// The row keeps its own buckets and shares the immutable bounds.
	lat.Buckets[0] = 99
	if first.histograms[0].Buckets[0] != 1 || &first.histograms[0].Bounds[0] != &lat.Bounds[0] {
		t.Fatal("histogram must copy buckets and share bounds")
	}
	// A later snapshot reuses the first one's series and stores values
	// only; the published first row is left alone.
	n = 5
	o.Finish()
	if second := o.Live(); second.names != first.names || second.Counter("live_total") != 5 || first.Counter("live_total") != 3 {
		t.Fatalf("second snapshot: %+v after %+v", second, first)
	}
}

// TestSeriesFixedByFirstSnapshot: a later snapshot must report exactly
// the first snapshot's series in the same order, and no snapshot may
// report a name twice; each violation panics naming the series.
func TestSeriesFixedByFirstSnapshot(t *testing.T) {
	t.Run("out of order", func(t *testing.T) {
		swap := false
		o := observe(func(s *Sample) {
			a, b := "a_total", "b_total"
			if swap {
				a, b = b, a
			}
			s.Counter(a, 1)
			s.Counter(b, 2)
		})
		o.Finish()
		swap = true
		mustPanic(t, `counter "b_total" reported in slot 0`, o.Finish)
	})
	t.Run("missing", func(t *testing.T) {
		all := true
		o := observe(func(s *Sample) {
			s.Gauge("a", 1)
			if all {
				s.Gauge("b", 2)
			}
		})
		o.Finish()
		all = false
		mustPanic(t, `gauge "b" missing`, o.Finish)
	})
	t.Run("added", func(t *testing.T) {
		all := false
		o := observe(func(s *Sample) {
			s.Counter("a_total", 1)
			if all {
				s.Counter("b_total", 2)
			}
		})
		o.Finish()
		all = true
		mustPanic(t, `counter "b_total" is not in the first snapshot`, o.Finish)
	})
	t.Run("duplicate", func(t *testing.T) {
		o := observe(func(s *Sample) { s.Counter("x_total", 1) }, func(s *Sample) { s.Counter("x_total", 2) })
		mustPanic(t, `counter "x_total" reported twice`, o.Finish)
	})
}

// TestHistogramShapeFixedByFirstSnapshot: a histogram must have one
// bucket more than it has bounds, and a later snapshot must report the
// first one's bounds; otherwise its buckets would be stored against
// the wrong bounds, so each violation panics naming the series.
func TestHistogramShapeFixedByFirstSnapshot(t *testing.T) {
	h := HistogramSnapshot{Bounds: []int64{10, 20}, Buckets: []int64{1, 2, 3}, Count: 6, Sum: 60}
	o := observe(func(s *Sample) { s.Histogram("lat", h) })
	o.Finish()
	h.Bounds = []int64{10, 20} // equal bounds in a new slice are fine
	o.Finish()
	for _, tc := range []struct {
		name, want string
		bounds     []int64
		buckets    []int64
	}{
		{"moved bound", `histogram "lat" reported bounds [10 25], which the first snapshot gave as [10 20]`,
			[]int64{10, 25}, []int64{1, 2, 3}},
		{"extra bound", `histogram "lat" reported bounds [10 20 30]`,
			[]int64{10, 20, 30}, []int64{1, 2, 3, 4}},
		{"extra bucket", `histogram "lat" reported 4 buckets for 2 bounds`,
			[]int64{10, 20}, []int64{1, 2, 3, 4}},
		{"missing bucket", `histogram "lat" reported 2 buckets for 2 bounds`,
			[]int64{10, 20}, []int64{1, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h.Bounds, h.Buckets = tc.bounds, tc.buckets
			mustPanic(t, tc.want, o.Finish)
		})
	}
	t.Run("first snapshot", func(t *testing.T) {
		o := observe(func(s *Sample) { s.Histogram("lat", HistogramSnapshot{Bounds: []int64{10}}) })
		mustPanic(t, `histogram "lat" reported 0 buckets for 1 bounds`, o.Finish)
	})
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
	names := &series{counters: []string{"x", "y"}, gauges: []string{"g"}, histograms: []string{"h"}}
	a := Snapshot{Seq: 1, T: 10, names: names,
		counters:   []int64{1, 0},
		gauges:     []float64{2},
		histograms: []HistogramSnapshot{{Bounds: []int64{5}, Buckets: []int64{1, 0}, Count: 1, Sum: 3}}}
	c := a.Clone()
	// Another observer's series with equal names merges too.
	b := Snapshot{Seq: 1, T: 25, names: &series{counters: []string{"x", "y"}, gauges: []string{"g"}, histograms: []string{"h"}},
		counters:   []int64{4, 9},
		gauges:     []float64{0.5},
		histograms: []HistogramSnapshot{{Bounds: []int64{5}, Buckets: []int64{0, 2}, Count: 2, Sum: 20}}}
	a.Merge(b)
	if a.T != 25 || a.Counter("x") != 5 || a.Counter("y") != 9 || a.Gauge("g") != 2.5 {
		t.Fatalf("merged: %+v", a)
	}
	h := a.histograms[0]
	if h.Count != 3 || h.Sum != 23 || h.Buckets[0] != 1 || h.Buckets[1] != 2 {
		t.Fatalf("merged histogram: %+v", h)
	}
	// The clone must be unaffected by merging into the original.
	if c.Counter("x") != 1 || c.histograms[0].Count != 1 || c.histograms[0].Buckets[1] != 0 {
		t.Fatalf("clone aliased the original: %+v", c)
	}
	other := Snapshot{names: &series{counters: []string{"x", "z"}}, counters: []int64{1, 1}}
	mustPanic(t, "different series", func() { a.Merge(other) })
}

func TestMergeSnapshotsSeries(t *testing.T) {
	names := &series{counters: []string{"x"}}
	row := func(seq, t, x int64) Snapshot {
		return Snapshot{Seq: seq, T: t, Final: seq == FinalSeq, names: names, counters: []int64{x}}
	}
	shard0 := []Snapshot{row(0, 100, 1), row(1, 200, 3), row(FinalSeq, 250, 4)}
	shard1 := []Snapshot{row(0, 100, 10), row(FinalSeq, 130, 11)} // ended before interval 1
	got := MergeSnapshots(shard0, shard1)
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	if got[0].Counter("x") != 11 || got[1].Counter("x") != 3 {
		t.Fatalf("intervals: %+v", got[:2])
	}
	fin := got[2]
	if !fin.Final || fin.Seq != FinalSeq || fin.Counter("x") != 15 || fin.T != 250 {
		t.Fatalf("final: %+v", fin)
	}
	// Merging never writes into the shards' published rows.
	if shard0[0].Counter("x") != 1 || shard0[2].Counter("x") != 4 {
		t.Fatalf("merge modified a shard row: %+v", shard0)
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
	if snaps[0].Counter("ops_total") != 1 || snaps[2].Counter("ops_total") != 2 {
		t.Fatalf("cumulative counters: %+v then %+v", snaps[0], snaps[2])
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

// TestLiveIsACopy: the observer reuses its two interval row buffers,
// so Live hands out copies; a row returned earlier is unchanged by
// the rows taken after it, and a caller may merge into its copy.
func TestLiveIsACopy(t *testing.T) {
	var clk sim.Clock
	o := New(Options{MetricsInterval: 10})
	o.SetClock(&clk)
	var n int64
	lat := HistogramSnapshot{Bounds: []int64{10}, Buckets: []int64{0, 0}}
	o.RegisterCollector(func(s *Sample) {
		s.Counter("n_total", n)
		s.Histogram("lat", lat)
	})
	var seen []*Snapshot
	for n = 1; n <= 4; n++ {
		lat.Buckets[0], lat.Count = n, n
		clk.Advance(10)
		o.MaybeSnapshot(clk.Now())
		seen = append(seen, o.Live())
	}
	seen[3].Merge(*seen[3])
	for i, s := range seen[:3] {
		if s.Seq != int64(i) || s.Counter("n_total") != int64(i+1) || s.histograms[0].Buckets[0] != int64(i+1) {
			t.Fatalf("row %d changed after later rows: %+v", i, s)
		}
	}
	if again := o.Live(); again.Counter("n_total") != 4 || again.histograms[0].Count != 4 {
		t.Fatalf("merging into a Live copy changed the observer's row: %+v", again)
	}
	// The reused rows copied the collector's buckets, so the log holds
	// each row's own.
	for i, s := range o.Snapshots() {
		if b := s.histograms[0].Buckets[0]; b != int64(i+1) {
			t.Fatalf("logged row %d has bucket %d, want %d", i, b, i+1)
		}
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
	if fin.Counter("n_total") != 3 || fin.T != 300 || !fin.Final {
		t.Fatalf("merged final: %+v", fin)
	}
	if len(rep.Events) != 2 || rep.Events[0].Shard != 1 || rep.Events[1].Shard != 0 {
		t.Fatalf("events must sort by simulated time: %+v", rep.Events)
	}
}

func TestWritePrometheus(t *testing.T) {
	s := &Snapshot{T: 42,
		names:      &series{counters: []string{"b_total", "a_total"}, gauges: []string{"valid"}, histograms: []string{"lat"}},
		counters:   []int64{2, 1},
		gauges:     []float64{7},
		histograms: []HistogramSnapshot{{Bounds: []int64{10}, Buckets: []int64{3, 1}, Count: 4, Sum: 25}}}
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

// TestJSONLWritersDeterministic pins the snapshot wire format: names
// are sorted within each kind, and an interval snapshot omits `final`
// and every kind it has no series of.
func TestJSONLWritersDeterministic(t *testing.T) {
	var clk sim.Clock
	o := New(Options{Metrics: true, MetricsInterval: 100})
	o.SetClock(&clk)
	o.RegisterCollector(func(s *Sample) {
		s.Counter("b_total", 2)
		s.Counter("a_total", int64(clk.Now()))
	})
	clk.Advance(150)
	o.MaybeSnapshot(clk.Now())
	o.Finish()
	final := *o.Live()
	final.names = &series{counters: final.names.counters, gauges: []string{"valid", "frac"}, histograms: []string{"lat"}}
	final.gauges = []float64{7, 0.25}
	final.histograms = []HistogramSnapshot{{Bounds: []int64{10, 20}, Buckets: []int64{3, 0, 1}, Count: 4, Sum: 45}}
	snaps := []Snapshot{o.Snapshots()[0], final}

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
	want := `{"seq":0,"t":100,"counters":{"a_total":150,"b_total":2}}
{"seq":-1,"t":150,"final":true,"counters":{"a_total":150,"b_total":2},"gauges":{"frac":0.25,"valid":7},` +
		`"histograms":{"lat":{"bounds":[10,20],"buckets":[3,0,1],"count":4,"sum":45}}}
`
	if got := x.String(); got != want {
		t.Fatalf("wire format\n got %s\nwant %s", got, want)
	}
}

package engine

import (
	"bytes"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"flashdc/internal/hier"
	"flashdc/internal/obs"
	"flashdc/internal/sim"
	"flashdc/internal/trace"
	"flashdc/internal/workload"
)

func obsTestOptions() obs.Options {
	return obs.Options{
		Metrics:         true,
		MetricsInterval: 50 * sim.Millisecond,
		Trace:           true,
	}
}

// serialise renders a report exactly as fdcsim writes it to disk.
func serialise(t *testing.T, rep *obs.Report) (metrics, events []byte) {
	t.Helper()
	var m, ev bytes.Buffer
	if err := obs.WriteSnapshotsJSONL(&m, rep.Snapshots); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteEventsJSONL(&ev, rep.Events); err != nil {
		t.Fatal(err)
	}
	return m.Bytes(), ev.Bytes()
}

func observedRun(t *testing.T, shards, workers int) (*Engine, *obs.Report) {
	t.Helper()
	e, err := New(Config{Shards: shards, Workers: workers, Hier: testConfig(), Obs: obsTestOptions()})
	if err != nil {
		t.Fatal(err)
	}
	g := newTestGen(t)
	e.RunSource(workload.AsSource(g), testRequests)
	e.Drain()
	return e, e.Observe()
}

// TestObserveGoldenDeterminism is the tentpole guarantee: for a fixed
// (seed, shards) pair the serialised observability output is
// byte-identical at any worker count.
func TestObserveGoldenDeterminism(t *testing.T) {
	_, golden := observedRun(t, 8, 1)
	gm, ge := serialise(t, golden)
	if len(golden.Snapshots) == 0 || len(golden.Events) == 0 {
		t.Fatalf("golden run observed nothing: %d snapshots, %d events",
			len(golden.Snapshots), len(golden.Events))
	}
	for _, workers := range []int{4, 8} {
		_, rep := observedRun(t, 8, workers)
		m, ev := serialise(t, rep)
		if !bytes.Equal(gm, m) {
			t.Fatalf("metrics JSONL diverged at workers=%d", workers)
		}
		if !bytes.Equal(ge, ev) {
			t.Fatalf("event JSONL diverged at workers=%d", workers)
		}
	}
}

// TestObserveMonolithicParity: a single-shard engine and a monolithic
// System with the equivalent observer produce identical reports.
func TestObserveMonolithicParity(t *testing.T) {
	_, engRep := observedRun(t, 1, 1)

	cfg := testConfig()
	o := obs.New(obsTestOptions())
	cfg.Observer = o
	s := hier.New(cfg)
	g := newTestGen(t)
	reqs := make([]trace.Request, testRequests)
	for i := range reqs {
		reqs[i] = g.Next()
	}
	s.RunBatch(reqs)
	s.Drain()
	sysRep := obs.BuildReport(o)

	em, ee := serialise(t, engRep)
	sm, se := serialise(t, sysRep)
	// The engine's report carries one extra shard_merge event; strip it
	// before comparing the streams.
	var engEvents []obs.Event
	for _, e := range engRep.Events {
		if e.Kind != obs.KindShardMerge {
			engEvents = append(engEvents, e)
		}
	}
	em2, ee2 := serialise(t, &obs.Report{Snapshots: engRep.Snapshots, Events: engEvents})
	if !bytes.Equal(em, em2) {
		t.Fatal("stripping events must not disturb snapshots")
	}
	if !bytes.Equal(em2, sm) {
		t.Fatalf("single-shard engine metrics differ from monolithic System:\n%s\nvs\n%s", em, sm)
	}
	if !bytes.Equal(ee2, se) {
		t.Fatalf("single-shard engine events differ from monolithic System:\n%s\nvs\n%s", ee, se)
	}
	_ = ee
}

// TestObserveRepeatedIsStable: calling Observe twice must not duplicate
// final snapshots or shard_merge events.
func TestObserveRepeatedIsStable(t *testing.T) {
	e, first := observedRun(t, 4, 2)
	second := e.Observe()
	fm, fe := serialise(t, first)
	sm, se := serialise(t, second)
	if !bytes.Equal(fm, sm) || !bytes.Equal(fe, se) {
		t.Fatal("repeated Observe must be idempotent")
	}
}

// TestObserveDisabled: without Obs options the report is empty but
// non-nil, and no observers exist.
func TestObserveDisabled(t *testing.T) {
	e, err := New(Config{Shards: 4, Hier: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	g := newTestGen(t)
	e.RunSource(workload.AsSource(g), 2000)
	e.Drain()
	rep := e.Observe()
	if rep == nil || len(rep.Snapshots) != 0 || len(rep.Events) != 0 {
		t.Fatalf("disabled run must yield an empty report, got %+v", rep)
	}
	if len(e.Observers()) != 0 {
		t.Fatal("disabled run must expose no observers")
	}
}

// TestObserverConfigValidation: Config.Obs is the one way to observe
// an engine, so a Hier.Observer fails fast at any shard count.
func TestObserverConfigValidation(t *testing.T) {
	shared := testConfig()
	shared.Observer = obs.New(obs.Options{Metrics: true})
	if _, err := New(Config{Shards: 2, Hier: shared}); err == nil {
		t.Fatal("shared observer across shards must be rejected")
	}
	if _, err := New(Config{Shards: 1, Hier: shared, Obs: obs.Options{Metrics: true}}); err == nil {
		t.Fatal("Obs plus Hier.Observer must be rejected")
	}
	if _, err := New(Config{Shards: 1, Hier: shared}); err == nil {
		t.Fatal("single-shard Hier.Observer must be rejected")
	}
}

// TestEngineShardPartitionedObservers: every shard gets its own
// observer stamped with its index.
func TestEngineShardPartitionedObservers(t *testing.T) {
	e, err := New(Config{Shards: 4, Hier: testConfig(), Obs: obsTestOptions()})
	if err != nil {
		t.Fatal(err)
	}
	obsList := e.Observers()
	if len(obsList) != 4 {
		t.Fatalf("observers = %d, want 4", len(obsList))
	}
	for i, o := range obsList {
		if o.Shard() != i {
			t.Fatalf("observer %d stamped shard %d", i, o.Shard())
		}
	}
}

// TestLiveEndpointDuringRun scrapes the live Prometheus endpoint from
// another goroutine while a 2-shard observed replay runs (run it under
// -race: the endpoint is the only cross-goroutine reader of observer
// state). After Observe, a scrape must render exactly the report's
// merged final snapshot.
func TestLiveEndpointDuringRun(t *testing.T) {
	e, err := New(Config{Shards: 2, Hier: testConfig(), Obs: obsTestOptions()})
	if err != nil {
		t.Fatal(err)
	}
	h := obs.Handler(e.Observers)
	scrape := func() string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		return rec.Body.String()
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				scrape()
			}
		}
	}()
	e.RunSource(workload.AsSource(newTestGen(t)), testRequests)
	close(stop)
	<-done
	e.Drain()
	rep := e.Observe()
	var want bytes.Buffer
	if err := obs.WritePrometheus(&want, &rep.Snapshots[len(rep.Snapshots)-1]); err != nil {
		t.Fatal(err)
	}
	if got := scrape(); got != want.String() {
		t.Fatalf("final scrape differs from the merged final snapshot:\n%s\nvs\n%s", got, want.String())
	}
	if !strings.Contains(want.String(), "tier_flash_hits_total") {
		t.Fatalf("final snapshot lacks the tier series:\n%s", want.String())
	}
}

// TestObserverRowRetention pins what an observer retains per interval
// row on a short 2-shard replay with a 10 ms interval: at most 96
// encoded bytes of its row log. And the merged report, decoded from
// the logs, writes the same JSONL as the rows as they were taken.
func TestObserverRowRetention(t *testing.T) {
	const interval = 10 * sim.Millisecond
	e, err := New(Config{Shards: 2, Hier: testConfig(), Obs: obs.Options{Metrics: true, MetricsInterval: interval}})
	if err != nil {
		t.Fatal(err)
	}
	observers := e.Observers()
	kept := make([][]obs.Snapshot, len(observers))
	// Route one request at a time and hand each shard one run per call,
	// so every MaybeSnapshot call is followed by a look at Live.
	for _, req := range testStream(t, 10000) {
		e.route([]trace.Request{req})
		for sh, runs := range e.pending {
			for _, run := range runs {
				e.shards[sh].RunBatch([]trace.Request{run})
				// The rows one MaybeSnapshot call takes read the same
				// component state, so those before the newest differ
				// from it in Seq and T only.
				live := observers[sh].Live()
				for n := int64(len(kept[sh])); live != nil && n <= live.Seq; n++ {
					row := *live
					row.Seq, row.T = n, (n+1)*int64(interval)
					kept[sh] = append(kept[sh], row)
				}
			}
		}
	}
	e.Drain()
	rep := e.Observe()
	for sh, o := range observers {
		kept[sh] = append(kept[sh], *o.Live()) // the final row
		rows, size := rowLogLen(t, o)
		if rows != len(kept[sh])-1 || rows < 100 {
			t.Fatalf("shard %d logged %d rows, took %d: want the same, at least 100", sh, rows, len(kept[sh])-1)
		}
		per := float64(size) / float64(rows)
		if per > 96 {
			t.Fatalf("shard %d retains %.1f encoded bytes per row (%d over %d rows), want <= 96", sh, per, size, rows)
		}
		t.Logf("shard %d: %d rows, %.1f encoded bytes each", sh, rows, per)
	}
	got, _ := serialise(t, rep)
	want, _ := serialise(t, &obs.Report{Snapshots: obs.MergeSnapshots(kept...)})
	if !bytes.Equal(got, want) {
		t.Fatalf("report metrics differ from the rows as taken:\n%s\nvs\n%s", got, want)
	}
}

// rowLogLen reads the row count and encoded size of o's row log. They
// are unexported: only this retention pin has a use for them.
func rowLogLen(t *testing.T, o *obs.Observer) (rows, size int) {
	t.Helper()
	l := reflect.ValueOf(o).Elem().FieldByName("rows")
	if l.Kind() != reflect.Struct || !l.FieldByName("rows").IsValid() || !l.FieldByName("size").IsValid() {
		t.Fatal("obs.Observer has no rows.rows and rows.size fields")
	}
	return int(l.FieldByName("rows").Int()), int(l.FieldByName("size").Int())
}

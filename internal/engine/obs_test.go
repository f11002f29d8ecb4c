package engine

import (
	"bytes"
	"net/http/httptest"
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

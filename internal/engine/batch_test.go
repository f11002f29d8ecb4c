package engine

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"flashdc/internal/hier"
	"flashdc/internal/obs"
	"flashdc/internal/trace"
)

// testStream materialises the standard test stream so the same
// requests can be replayed through every batching shape.
func testStream(t *testing.T, n int) []trace.Request {
	t.Helper()
	g := newTestGen(t)
	reqs := make([]trace.Request, n)
	for i := range reqs {
		reqs[i] = g.Next()
	}
	return reqs
}

// runBatched replays reqs through RunBatch on an engine built from hc,
// in slices whose sizes cycle through chunks, and returns the drained
// engine with its observability report.
func runBatched(t *testing.T, hc hier.Config, shards, workers int, reqs []trace.Request, chunks ...int) (*Engine, *obs.Report) {
	t.Helper()
	e, err := New(Config{Shards: shards, Workers: workers, Hier: hc, Obs: obsTestOptions()})
	if err != nil {
		t.Fatal(err)
	}
	for off, i := 0, 0; off < len(reqs); i++ {
		end := min(off+chunks[i%len(chunks)], len(reqs))
		if got := e.RunBatch(reqs[off:end]); got != end-off {
			t.Fatalf("RunBatch consumed %d of %d", got, end-off)
		}
		off = end
	}
	e.Drain()
	return e, e.Observe()
}

// TestRunBatchBoundaryInvariance is the batch-pipeline golden test:
// splitting one stream into batches of 1 (the single-request path), 7,
// DefaultBatch or the whole trace must merge to byte-identical
// statistics and observability output at every shard count.
func TestRunBatchBoundaryInvariance(t *testing.T) {
	reqs := testStream(t, testRequests)
	for _, shards := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ref, refRep := runBatched(t, testConfig(), shards, 0, reqs, 1)
			base := snap(t, ref)
			rm, re := serialise(t, refRep)
			for _, chunk := range []int{7, trace.DefaultBatch, len(reqs)} {
				e, rep := runBatched(t, testConfig(), shards, 0, reqs, chunk)
				if got := snap(t, e); !reflect.DeepEqual(got, base) {
					t.Fatalf("chunk=%d diverged from single-request path:\n got %+v\nwant %+v", chunk, got, base)
				}
				m, ev := serialise(t, rep)
				if !bytes.Equal(rm, m) {
					t.Fatalf("chunk=%d metrics JSONL diverged from single-request path", chunk)
				}
				if !bytes.Equal(re, ev) {
					t.Fatalf("chunk=%d event JSONL diverged from single-request path", chunk)
				}
			}
		})
	}
}

// TestRunBatchWorkerIndependence pins batch determinism: the routed
// per-shard slices, each simulated whole on one goroutine, must merge
// to the same result at any worker count — including workers <
// shards, where one goroutine simulates several shards, and a skewed
// stream whose requests all hash to one shard, leaving the other
// seven slices empty in every batch. The campaign row runs faults,
// scrub, retention, disturb and refresh on every shard, so the race
// detector sees those subsystems simulated concurrently. One-request
// batches and batches whose size alternates hand each helper a new
// stripe many thousand times, some of them empty, at every worker
// count. An empty batch is a no-op.
func TestRunBatchWorkerIndependence(t *testing.T) {
	const shards = 8
	uniform := testStream(t, testRequests)
	var skewed []trace.Request
	for _, req := range uniform {
		req.Pages = 1
		if trace.ShardOf(req.LBA, shards) == 3 {
			skewed = append(skewed, req)
		}
	}
	every := []int{2, 3, 4, 5, 6, 7, shards}
	for _, tc := range []struct {
		name    string
		hc      hier.Config
		reqs    []trace.Request
		chunks  []int
		workers []int
	}{
		{"uniform", testConfig(), uniform, []int{len(uniform)}, []int{2, 3, shards}},
		{"skewed", testConfig(), skewed, []int{512}, []int{2, 3}},
		{"campaign", campaignHier(testSeed), campaignReqs(testSeed, testRequests), []int{512}, []int{2, 3, shards}},
		{"one-request", testConfig(), uniform, []int{1}, every},
		{"alternating", testConfig(), uniform, []int{1, 700, 3, trace.DefaultBatch, 2}, every},
	} {
		ref, _ := runBatched(t, tc.hc, shards, 1, tc.reqs, tc.chunks...)
		base := snap(t, ref)
		if tc.name == "campaign" && (base.Faults.ReadInjections == 0 || base.Flash.ScrubScans == 0 || base.Flash.RetentionScans == 0) {
			t.Fatalf("campaign injected %d reads, scrubbed %d pages, ran %d retention scans: want all nonzero",
				base.Faults.ReadInjections, base.Flash.ScrubScans, base.Flash.RetentionScans)
		}
		for _, workers := range tc.workers {
			e, _ := runBatched(t, tc.hc, shards, workers, tc.reqs, tc.chunks...)
			if got := snap(t, e); !reflect.DeepEqual(got, base) {
				t.Fatalf("%s: workers=%d diverged from workers=1:\n got %+v\nwant %+v", tc.name, workers, got, base)
			}
		}
	}

	e, err := New(Config{Shards: shards, Workers: 3, Hier: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if n := e.RunBatch(nil); n != 0 {
		t.Fatalf("RunBatch(nil) = %d, want 0", n)
	}
	if got := e.Stats().Requests; got != 0 {
		t.Fatalf("an empty batch simulated %d requests", got)
	}
}

// TestRunSourceMatchesRunBatch: the two batch entry points are one
// pipeline; driving a SliceSource must equal feeding the slice whole.
func TestRunSourceMatchesRunBatch(t *testing.T) {
	reqs := testStream(t, testRequests)
	for _, shards := range []int{1, 4} {
		eb, _ := runBatched(t, testConfig(), shards, 0, reqs, len(reqs))
		es, err := New(Config{Shards: shards, Hier: testConfig(), Obs: obsTestOptions()})
		if err != nil {
			t.Fatal(err)
		}
		if n := es.RunSource(trace.NewSliceSource(reqs), len(reqs)); n != len(reqs) {
			t.Fatalf("RunSource consumed %d of %d", n, len(reqs))
		}
		es.Drain()
		es.Observe()
		if got, want := snap(t, es), snap(t, eb); !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d RunSource diverged from RunBatch:\n got %+v\nwant %+v", shards, got, want)
		}
	}
}

// TestRunSourceShortStream: a source that dries up early reports the
// true consumed count through both entry points.
func TestRunSourceShortStream(t *testing.T) {
	reqs := testStream(t, 100)
	e, err := New(Config{Shards: 2, Hier: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if n := e.RunSource(trace.NewSliceSource(reqs), 10*len(reqs)); n != len(reqs) {
		t.Fatalf("RunSource consumed %d, want %d (source exhausted)", n, len(reqs))
	}
	if got := e.Stats().Requests; got != int64(len(reqs)) {
		t.Fatalf("engine simulated %d requests, want %d", got, len(reqs))
	}
}

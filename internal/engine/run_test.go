package engine

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"flashdc/internal/trace"
)

// withHelpers runs the test at GOMAXPROCS ≥ 2, where a multi-shard
// batch uses helper goroutines, and skips it on a one-CPU host, where
// it never does.
func withHelpers(t *testing.T) {
	t.Helper()
	if runtime.NumCPU() < 2 {
		t.Skip("a one-CPU host starts no helper")
	}
	prev := runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0)))
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// awaitHelpersExit fails unless every helper of e has retired and the
// process is back to at most base goroutines within a second.
func awaitHelpersExit(t *testing.T, e *Engine, base int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for {
		exited := true
		for _, h := range e.helpers {
			exited = exited && h.state.Load() == helperExited
		}
		n := runtime.NumGoroutine()
		if exited && n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("an idle engine still runs %d goroutines a second later, want at most %d (helpers exited: %v)", n, base, exited)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestIdleHelpersExit: an idle engine's helper goroutines exit on
// their own, the next batch starts them again, and a replay paused
// that way gives the same results and observability output as one
// that never paused.
func TestIdleHelpersExit(t *testing.T) {
	withHelpers(t)
	const shards = 4
	reqs := testStream(t, testRequests)
	ref, refRep := runBatched(t, testConfig(), shards, 1, reqs, trace.DefaultBatch)
	rm, re := serialise(t, refRep)

	base := runtime.NumGoroutine()
	e, err := New(Config{Shards: shards, Hier: testConfig(), Obs: obsTestOptions()})
	if err != nil {
		t.Fatal(err)
	}
	half := len(reqs) / 2
	for _, part := range [][]trace.Request{reqs[:half], reqs[half:]} {
		for off := 0; off < len(part); off += trace.DefaultBatch {
			e.RunBatch(part[off:min(off+trace.DefaultBatch, len(part))])
		}
		if len(e.helpers) == 0 {
			t.Fatal("a 4-shard batch at GOMAXPROCS ≥ 2 started no helper")
		}
		awaitHelpersExit(t, e, base)
	}
	e.Drain()
	m, ev := serialise(t, e.Observe())
	if got, want := snap(t, e), snap(t, ref); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay paused until the helpers exited diverged:\n got %+v\nwant %+v", got, want)
	}
	if !bytes.Equal(m, rm) || !bytes.Equal(ev, re) {
		t.Fatal("replay paused until the helpers exited changed the observability output")
	}
}

// TestWarmRunBatchAllocatesNothing: once its routed slices have grown,
// a 2-shard batch whose helper is still spinning allocates nothing,
// handoff included. The count is the process's malloc total because
// testing.AllocsPerRun runs at GOMAXPROCS 1, where no helper runs. A
// pause longer than helperSpin before a batch (ReadMemStats stops the
// world; a busy host deschedules the test) retires the helper, and
// the batch that starts it again may allocate its goroutine, so such
// batches are not counted. The runtime itself allocates once when a
// spin loop's yield first needs a new OS thread; an allocation of the
// batch's own shows in every replay, so each batch's fewest count
// over the replays must be 0.
func TestWarmRunBatchAllocatesNothing(t *testing.T) {
	withHelpers(t)
	e, err := New(Config{Shards: 2, Hier: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	reqs := testStream(t, testRequests)
	var batches [][]trace.Request
	for off := 0; off < len(reqs); off += trace.DefaultBatch {
		batches = append(batches, reqs[off:min(off+trace.DefaultBatch, len(reqs))])
	}
	for _, b := range batches {
		e.RunBatch(b)
	}
	fewest := make([]uint64, len(batches))
	for i := range fewest {
		fewest[i] = math.MaxUint64
	}
	var before, after runtime.MemStats
	for range 5 {
		for i, b := range batches {
			starts := e.helpers[0].starts
			runtime.ReadMemStats(&before)
			e.RunBatch(b)
			runtime.ReadMemStats(&after)
			if e.helpers[0].starts == starts {
				fewest[i] = min(fewest[i], after.Mallocs-before.Mallocs)
			}
		}
	}
	warm := 0
	for i, n := range fewest {
		if n == math.MaxUint64 {
			continue
		}
		warm++
		if n != 0 {
			t.Errorf("warm batch %d allocated in every replay, at least %d times; want 0", i, n)
		}
	}
	if warm == 0 {
		t.Fatalf("every batch of %d replays restarted its helper", 5)
	}
}

// TestOneProcStartsNoGoroutine: at GOMAXPROCS 1 the caller simulates
// every shard itself, whatever the configured worker count.
func TestOneProcStartsNoGoroutine(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	base := runtime.NumGoroutine()
	e, err := New(Config{Shards: 8, Workers: 8, Hier: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	reqs := testStream(t, 4*trace.DefaultBatch)
	for off := 0; off < len(reqs); off += trace.DefaultBatch {
		e.RunBatch(reqs[off : off+trace.DefaultBatch])
	}
	if len(e.helpers) != 0 || runtime.NumGoroutine() > base {
		t.Fatalf("GOMAXPROCS 1 built %d helpers, goroutines %d → %d; want none started", len(e.helpers), base, runtime.NumGoroutine())
	}
	if e.Workers() != 8 {
		t.Fatalf("Workers() = %d, want the configured 8", e.Workers())
	}
}

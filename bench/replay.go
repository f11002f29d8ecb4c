package main

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"flashdc/internal/core"
	"flashdc/internal/dram"
	"flashdc/internal/engine"
	"flashdc/internal/hier"
	"flashdc/internal/nand"
	"flashdc/internal/sched"
	"flashdc/internal/sim"
	"flashdc/internal/tables"
	"flashdc/internal/trace"
)

// replay is one untraced end-to-end pass: a fresh engine fed the whole
// mapped trace through RunBatch in trace.DefaultBatch chunks, the same
// loop fdcsim drives a binary trace with.
type replay struct {
	// setup is engine.New plus trace.MapFile.
	setup time.Duration
	// wall is the whole driving loop; batches holds each iteration of
	// it (decode plus RunBatch), so they sum to wall.
	wall    time.Duration
	batches []time.Duration
	// submitted counts requests handed to RunBatch, replayed the
	// requests it reports serviced.
	submitted, replayed int
	// heapBytes is HeapAlloc after a full GC with the engine still live.
	heapBytes uint64
	digest    string
	sim       simResult
	// eng and spans are kept only for a traced replay: the engine is
	// the reference the ledger is verified against, and each RunBatch
	// call is the root span of its batch.
	eng   *engine.Engine
	spans []span
}

// runReplay replays tf through a fresh engine built for s; traced
// keeps the engine and records a span per batch.
func runReplay(s spec, tf traceFile, traced bool) (*replay, error) {
	eng, src, setup, err := setUp(s, tf)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	r := &replay{setup: setup}

	buf := make([]trace.Request, trace.DefaultBatch)
	r.batches = make([]time.Duration, 0, src.Len()/len(buf)+1)
	if traced {
		r.spans = make([]span, 0, cap(r.batches))
	}
	runtime.GC()
	start := time.Now()
	b0 := start
	for batch := 0; ; batch++ {
		k := src.Next(buf)
		if k == 0 {
			break
		}
		n := eng.RunBatch(buf[:k])
		b1 := time.Now()
		r.batches = append(r.batches, b1.Sub(b0))
		if traced {
			r.spans = append(r.spans, span{Layer: "engine", Batch: batch,
				StartNS: b0.Sub(start).Nanoseconds(), EndNS: b1.Sub(start).Nanoseconds()})
		}
		r.submitted += k
		r.replayed += n
		b0 = b1
	}
	r.wall = time.Since(start)
	if err := src.Err(); err != nil {
		return nil, fmt.Errorf("trace decode: %w", err)
	}

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	r.heapBytes = ms.HeapAlloc

	if err := audit(shardsOf(eng)); err != nil {
		return nil, err
	}
	if err := checkPages(eng.Stats(), tf); err != nil {
		return nil, err
	}
	r.sim = simResults(eng, r.submitted, r.replayed)
	r.digest = digestOf(eng)
	if traced {
		r.eng = eng
	}
	return r, nil
}

// auditable is the part of a shard's hierarchy the correctness audit
// reads; tests substitute shards that forge a failure.
type auditable interface {
	Err() error
	CheckIntegrity() error
}

func shardsOf(eng *engine.Engine) []auditable {
	out := make([]auditable, eng.Shards())
	for i := range out {
		out[i] = eng.Shard(i)
	}
	return out
}

// audit fails when any shard reports degraded service or a Flash
// mapping table that disagrees with its device contents.
func audit(shards []auditable) error {
	for i, sh := range shards {
		if err := sh.Err(); err != nil {
			return fmt.Errorf("shard %d: degraded service: %w", i, err)
		}
		if err := sh.CheckIntegrity(); err != nil {
			return fmt.Errorf("shard %d: integrity: %w", i, err)
		}
	}
	return nil
}

// checkPages verifies that the engine serviced exactly the pages the
// trace holds. Requests may be split across shards, pages never are.
func checkPages(st hier.Stats, tf traceFile) error {
	if st.ReadPages != tf.readPages || st.WritePages != tf.writePages {
		return fmt.Errorf("engine serviced %d read and %d write pages, trace holds %d and %d",
			st.ReadPages, st.WritePages, tf.readPages, tf.writePages)
	}
	return nil
}

// simResult holds the simulated end-to-end results of one replay; they
// are deterministic for a (workload, seed) pair.
type simResult struct {
	FlashHitRate  float64
	MeanLatencyUS float64
	P99US, P999US float64
	LatencyCount  uint64
	ErasesPerMReq float64
	WriteAmp      float64
	FailedFrac    float64
}

func simResults(eng *engine.Engine, submitted, replayed int) simResult {
	st := eng.Stats()
	fs := eng.FlashStats()
	ds := eng.DeviceStats()
	lat := eng.Latencies()
	pages := st.ReadPages + st.WritePages
	return simResult{
		FlashHitRate:  ratio(st.FlashHits, st.ReadPages-st.PDCHits),
		MeanLatencyUS: ratio(int64(st.TotalLatency), pages) / 1e3,
		P99US:         float64(lat.Quantile(0.99)) / 1e3,
		P999US:        float64(lat.Quantile(0.999)) / 1e3,
		LatencyCount:  lat.Count(),
		ErasesPerMReq: ratio(ds.Erases, int64(submitted)) * 1e6,
		WriteAmp:      ratio(ds.Programs, fs.Writes+fs.Fills),
		FailedFrac:    ratio(int64(submitted-replayed), int64(submitted)),
	}
}

// simDigest is every simulated counter a replay produces. Two replays
// of one trace must render it byte-identically.
type simDigest struct {
	Hier     hier.Stats
	Latency  sim.HistogramState
	Flash    core.Stats
	Global   tables.FGST
	Device   nand.Stats
	Sched    sched.Stats
	DRAM     dram.Stats
	DiskBusy sim.Duration
	Clocks   []sim.Time
}

func digestOf(eng *engine.Engine) string {
	d := simDigest{
		Hier:     eng.Stats(),
		Latency:  eng.Latencies().State(),
		Flash:    eng.FlashStats(),
		Global:   eng.Global(),
		Device:   eng.DeviceStats(),
		Sched:    eng.SchedStats(),
		DiskBusy: eng.DiskBusy(),
	}
	for i := 0; i < eng.Shards(); i++ {
		sh := eng.Shard(i)
		d.DRAM.Merge(sh.PDC().Stats())
		d.Clocks = append(d.Clocks, sh.Now())
	}
	return fmt.Sprintf("%+v", d)
}

// errNondeterministic marks a repeat whose simulated results differ
// from the first repeat's.
var errNondeterministic = errors.New("simulated results differ between repeats")

// sameDigest fails when repeat n's digest differs from the first's.
func sameDigest(first, got string, n int) error {
	if got != first {
		return fmt.Errorf("repeat %d: %w:\n first: %s\n  this: %s", n, errNondeterministic, first, got)
	}
	return nil
}

// equal fails, naming the layer and the quantity, when the isolated
// replay's value differs from the engine's.
func equal(layer string, shard int, what string, isolated, engine any) error {
	if reflect.DeepEqual(isolated, engine) {
		return nil
	}
	return fmt.Errorf("ledger mismatch in layer %s (shard %d, %s):\n isolated: %+v\n   engine: %+v",
		layer, shard, what, isolated, engine)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

package engine

import (
	"sync"

	"flashdc/internal/trace"
)

// This file is the sharded half of the batched request pipeline:
// RunBatch/RunSource are the only driving surface, and every RunBatch
// call is one fork-join. The calling goroutine routes the batch —
// splitting each request into per-shard runs of consecutive pages
// (trace.SplitRuns) — into per-shard slices; then Workers() goroutines
// each simulate a fixed stripe of whole shards' slices. Determinism
// holds by construction: each shard's slice runs in router order on
// exactly one goroutine, so the per-shard request sequence — the only
// thing shard state depends on — is fixed by the partition, never by
// scheduling.

// route splits batch into e.pending, one slice per shard, with a
// single hash pass over each request's pages.
func (e *Engine) route(batch []trace.Request) {
	shards := len(e.shards)
	if e.pending == nil {
		e.pending = make([][]trace.Request, shards)
	}
	for s := range e.pending {
		e.pending[s] = e.pending[s][:0]
	}
	for _, req := range batch {
		if req.Pages <= 1 {
			// Single-page fast path — the overwhelmingly common case.
			s := trace.ShardOf(req.LBA, shards)
			e.pending[s] = append(e.pending[s], req)
			continue
		}
		trace.SplitRuns(req, shards, func(s int, run trace.Request) {
			e.pending[s] = append(e.pending[s], run)
		})
	}
}

// RunBatch services every request of batch across the shards and
// returns len(batch). Results are bit-identical for any split of the
// same stream into batches and for any worker count.
func (e *Engine) RunBatch(batch []trace.Request) int {
	if len(e.shards) == 1 {
		e.shards[0].RunBatch(batch)
		return len(batch)
	}
	e.route(batch)
	// The calling goroutine is one of the Workers() simulators; worker
	// w simulates shards w, w+Workers(), w+2·Workers(), ...
	workers := e.Workers()
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.runShards(w, workers)
		}()
	}
	e.runShards(0, workers)
	wg.Wait()
	return len(batch)
}

// runShards simulates the routed slices of shards first,
// first+stride, first+2·stride, ...
func (e *Engine) runShards(first, stride int) {
	for s := first; s < len(e.shards); s += stride {
		e.shards[s].RunBatch(e.pending[s])
	}
}

// RunSource replays up to n requests from src across the shards in
// trace.DefaultBatch chunks, returning the number of global requests
// consumed (short only when src ends early).
func (e *Engine) RunSource(src trace.Source, n int) int {
	if e.srcBuf == nil {
		e.srcBuf = make([]trace.Request, trace.DefaultBatch)
	}
	consumed := 0
	for consumed < n {
		k := src.Next(e.srcBuf[:min(len(e.srcBuf), n-consumed)])
		if k == 0 {
			break
		}
		consumed += e.RunBatch(e.srcBuf[:k])
	}
	return consumed
}

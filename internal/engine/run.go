package engine

import (
	"runtime"
	"sync/atomic"
	"time"

	"flashdc/internal/trace"
)

// This file is the sharded half of the batched request pipeline:
// RunBatch/RunSource are the only driving surface. The calling
// goroutine routes each batch — splitting each request into per-shard
// runs of consecutive pages (trace.SplitRuns) — into per-shard slices;
// then n simulators each run a fixed stripe of whole shards' slices:
// the caller and n−1 helper goroutines the engine keeps hot between
// batches. Determinism holds by construction: each shard's slice runs
// in router order on exactly one goroutine, so the per-shard request
// sequence — the only thing shard state depends on — is fixed by the
// partition, never by scheduling.
//
// A helper is not started per batch: waking an idle CPU for a fresh
// goroutine costs tens of microseconds, a large share of a batch's
// work. After its stripe a helper spins waiting for the next one until
// the engine has been out of RunBatch for helperSpin, then exits on
// its own; the next batch that finds it gone starts it again. So no
// helper outlives an idle engine by more than helperSpin, and the
// engine needs no Close.

// helperSpin is how long a helper waits for the next batch after the
// last one returned before it exits. It covers the caller's decode of
// the next batch with room to spare.
const helperSpin = 200 * time.Microsecond

// spinChecks is how many state loads a spinning goroutine makes
// between runtime.Gosched calls (and, in a helper, clock reads).
const spinChecks = 64

// A helper's state word. The caller moves it idle→posted (or
// exited→posted, starting a goroutine); the helper moves it
// posted→idle when its stripe is done and idle→exited when it retires.
// Each move is one atomic operation, so a post and a retirement that
// race are decided by which CAS from idle wins.
const (
	helperExited int32 = iota
	helperIdle
	helperPosted
)

// helper is one persistent simulator goroutine's mailbox. first and
// stride are the posted stripe; the caller writes them only while the
// helper is idle or exited, before the state store that publishes them.
type helper struct {
	state         atomic.Int32
	first, stride int
	// starts counts the goroutines post has started for this helper.
	starts int
}

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
	e.inBatch.Store(true)
	e.route(batch)
	// The caller is simulator 0; simulator w runs shards w, w+n,
	// w+2n, ... At n == 1 the caller runs every shard and no helper
	// exists.
	n := e.simulators()
	for w := 1; w < n; w++ {
		e.post(w, n)
	}
	e.runShards(0, n)
	for _, h := range e.helpers[:n-1] {
		h.wait()
	}
	e.inBatch.Store(false)
	return len(batch)
}

// simulators returns how many goroutines simulate a batch: Workers(),
// capped by the Ps and CPUs that can run them at once. A spinning
// helper on an oversubscribed host would take the CPU its caller
// needs, so the cap is read per batch.
func (e *Engine) simulators() int {
	return min(e.Workers(), runtime.GOMAXPROCS(0), runtime.NumCPU())
}

// post hands the stripe (w, n) to helper w−1, starting its goroutine
// when it has exited or never ran.
func (e *Engine) post(w, n int) {
	for len(e.helpers) < w {
		e.helpers = append(e.helpers, &helper{})
	}
	h := e.helpers[w-1]
	h.first, h.stride = w, n
	if !h.state.CompareAndSwap(helperIdle, helperPosted) {
		h.state.Store(helperPosted)
		h.starts++
		go e.help(h)
	}
}

// help is a helper goroutine: it runs each posted stripe, then spins
// for the next until the engine has been out of RunBatch for
// helperSpin. Once it stores idle it touches no shard and no routed
// slice until the next post.
func (e *Engine) help(h *helper) {
	for {
		e.runShards(h.first, h.stride)
		h.state.Store(helperIdle)
		idle := time.Now()
		for i := 1; h.state.Load() != helperPosted; i++ {
			if i%spinChecks != 0 {
				continue
			}
			// The caller may still be simulating its own stripe; the
			// window starts once it has returned.
			if now := time.Now(); e.inBatch.Load() {
				idle = now
			} else if now.Sub(idle) > helperSpin && h.state.CompareAndSwap(helperIdle, helperExited) {
				return
			}
			runtime.Gosched()
		}
	}
}

// wait spins until the helper has finished its posted stripe.
func (h *helper) wait() {
	for i := 1; h.state.Load() == helperPosted; i++ {
		if i%spinChecks == 0 {
			runtime.Gosched()
		}
	}
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

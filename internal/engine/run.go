package engine

import (
	"runtime"
	"sync"

	"flashdc/internal/trace"
)

// This file is the sharded half of the batched request pipeline:
// RunBatch/RunSource are the only driving surface. The calling
// goroutine routes the global stream — splitting each request into
// per-shard runs of consecutive pages (trace.SplitRuns) — into
// per-shard batch buffers; full batches land on per-shard run queues
// consumed by a work-stealing worker pool. Determinism is preserved by
// construction: every shard's batches are executed in router order,
// one at a time (a shard is never concurrently active on two workers),
// so the per-shard request sequence — the only thing shard state
// depends on — is fixed by the partition, never by scheduling.
//
// Work stealing handles skewed partitions: a worker prefers its home
// shard, but an idle worker takes the runnable shard with the deepest
// queue, so a hot shard's backlog is drained by whichever workers are
// free instead of serialising behind one.
//
// When effective parallelism is 1 — a single worker, a single shard,
// or GOMAXPROCS=1 — the scheduler is bypassed entirely and batches are
// simulated inline on the calling goroutine: same per-shard order,
// none of the queue/wakeup overhead.

const (
	// batchSize is how many requests a shard simulates per worker
	// slot acquisition, and the router's enqueue granularity.
	batchSize = 64
	// queueDepth bounds how many routed batches may sit queued per
	// shard before the router blocks for headroom.
	queueDepth = 8
)

// fifo is a per-shard batch queue (append at tail, pop at head).
type fifo struct {
	items [][]trace.Request
	head  int
}

func (f *fifo) len() int { return len(f.items) - f.head }

func (f *fifo) push(b []trace.Request) { f.items = append(f.items, b) }

func (f *fifo) pop() []trace.Request {
	b := f.items[f.head]
	f.items[f.head] = nil
	f.head++
	if f.head == len(f.items) {
		f.items = f.items[:0]
		f.head = 0
	}
	return b
}

// runner is the state of one RunBatch/RunSource replay.
type runner struct {
	e      *Engine
	serial bool
	// batch is the flush threshold for pending buffers: batchSize in
	// parallel mode (enqueue granularity = steal granularity), but at
	// least DefaultBatch when inline — with no scheduler to feed there
	// is no reason to cut the stream into small slices.
	batch int
	// pending accumulates routed runs per shard on the router side.
	pending [][]trace.Request

	// Scheduler state (parallel mode), all guarded by mu. cond is
	// shared by workers (waiting for runnable shards), and the router
	// (waiting for queue headroom); completions broadcast.
	mu     sync.Mutex
	cond   *sync.Cond
	queues []fifo
	busy   []bool
	queued int
	free   [][]trace.Request
	done   bool
	wg     sync.WaitGroup
}

func (e *Engine) startRun() *runner {
	r := &runner{e: e}
	r.serial = len(e.shards) == 1 || e.Workers() == 1 || runtime.GOMAXPROCS(0) == 1
	r.batch = batchSize
	if r.serial {
		r.batch = trace.DefaultBatch
	}
	if e.pending == nil {
		e.pending = make([][]trace.Request, len(e.shards))
		for s := range e.pending {
			e.pending[s] = make([]trace.Request, 0, batchSize)
		}
	}
	r.pending = e.pending
	if r.serial {
		return r
	}
	r.cond = sync.NewCond(&r.mu)
	r.queues = make([]fifo, len(e.shards))
	r.busy = make([]bool, len(e.shards))
	workers := e.Workers()
	r.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go r.worker(w % len(e.shards))
	}
	return r
}

// pick returns a runnable shard — home when it has work, otherwise the
// runnable shard with the deepest queue (lowest index on ties) — or -1.
func (r *runner) pick(home int) int {
	if !r.busy[home] && r.queues[home].len() > 0 {
		return home
	}
	best, depth := -1, 0
	for s := range r.queues {
		if !r.busy[s] {
			if d := r.queues[s].len(); d > depth {
				best, depth = s, d
			}
		}
	}
	return best
}

func (r *runner) worker(home int) {
	defer r.wg.Done()
	r.mu.Lock()
	for {
		s := r.pick(home)
		if s < 0 {
			if r.done && r.queued == 0 {
				break
			}
			r.cond.Wait()
			continue
		}
		b := r.queues[s].pop()
		r.queued--
		r.busy[s] = true
		r.mu.Unlock()
		r.e.shards[s].runBatch(b)
		r.mu.Lock()
		r.busy[s] = false
		r.free = append(r.free, b[:0])
		r.cond.Broadcast()
	}
	r.mu.Unlock()
}

// flush hands shard s's pending buffer to the scheduler (or simulates
// it inline in serial mode) and leaves a fresh buffer behind.
func (r *runner) flush(s int) {
	b := r.pending[s]
	if len(b) == 0 {
		return
	}
	if r.serial {
		r.e.shards[s].runBatch(b)
		r.pending[s] = b[:0]
		return
	}
	r.mu.Lock()
	for r.queues[s].len() >= queueDepth {
		r.cond.Wait()
	}
	r.queues[s].push(b)
	r.queued++
	var nb []trace.Request
	if n := len(r.free); n > 0 {
		nb, r.free = r.free[n-1], r.free[:n-1]
	}
	r.cond.Broadcast()
	r.mu.Unlock()
	if nb == nil {
		nb = make([]trace.Request, 0, r.batch)
	}
	r.pending[s] = nb
}

// route splits one global request into per-shard runs with a single
// hash pass over its pages (one ShardOf per page, not per page per
// shard), flushing any buffer that reaches the batch size.
func (r *runner) route(req trace.Request) {
	shards := len(r.e.shards)
	batch := r.batch
	if req.Pages <= 1 {
		// Single-page fast path — the overwhelmingly common case.
		s := trace.ShardOf(req.LBA, shards)
		r.pending[s] = append(r.pending[s], req)
		if len(r.pending[s]) >= batch {
			r.flush(s)
		}
		return
	}
	trace.SplitRuns(req, shards, func(s int, run trace.Request) {
		r.pending[s] = append(r.pending[s], run)
		if len(r.pending[s]) >= batch {
			r.flush(s)
		}
	})
}

// finish drains the pending buffers and winds down the workers.
func (r *runner) finish() {
	for s := range r.pending {
		r.flush(s)
	}
	if r.serial {
		return
	}
	r.mu.Lock()
	r.done = true
	r.cond.Broadcast()
	r.mu.Unlock()
	r.wg.Wait()
}

// runBatch replays one routed batch on the shard and latches the
// first degraded-service condition (sticky on the underlying system,
// so batch-end capture matches per-request capture exactly).
func (sh *shard) runBatch(batch []trace.Request) {
	sh.sys.RunBatch(batch)
	if err := sh.sys.Err(); err != nil && sh.err == nil {
		sh.err = err
	}
}

// RunBatch services every request of batch across the shards and
// returns len(batch). Results are bit-identical for any split of the
// same stream into batches and for any worker count.
func (e *Engine) RunBatch(batch []trace.Request) int {
	if len(e.shards) == 1 {
		e.shards[0].runBatch(batch)
		return len(batch)
	}
	r := e.startRun()
	for _, req := range batch {
		r.route(req)
	}
	r.finish()
	return len(batch)
}

// RunSource replays up to n requests from src across the shards,
// returning the number of global requests consumed (short only when
// src ends early). The routing runs on the calling goroutine; shard
// simulation overlaps on the worker pool.
func (e *Engine) RunSource(src trace.Source, n int) int {
	if e.srcBuf == nil {
		e.srcBuf = make([]trace.Request, trace.DefaultBatch)
	}
	single := len(e.shards) == 1
	var r *runner
	if !single {
		r = e.startRun()
	}
	consumed := 0
	for consumed < n {
		chunk := len(e.srcBuf)
		if rem := n - consumed; rem < chunk {
			chunk = rem
		}
		k := src.Next(e.srcBuf[:chunk])
		if k == 0 {
			break
		}
		if single {
			e.shards[0].runBatch(e.srcBuf[:k])
		} else {
			for _, req := range e.srcBuf[:k] {
				r.route(req)
			}
		}
		consumed += k
	}
	if !single {
		r.finish()
	}
	return consumed
}

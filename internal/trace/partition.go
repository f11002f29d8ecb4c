package trace

import "flashdc/internal/sim"

// This file defines the canonical hash-partitioning of the LBA space
// used by the sharded simulation engine (internal/engine) and by
// callers that need to know which shard owns a page. It lives here,
// next to the request format itself, so every side agrees on the
// mapping.

// ShardOf maps a page to its owning shard under the canonical
// hash-partitioning of the LBA space across shards partitions. The
// splitmix64 avalanche spreads even fully sequential LBA ranges
// uniformly, so every shard sees a statistically identical slice of
// any workload. One shard owns everything.
func ShardOf(lba int64, shards int) int {
	if shards <= 1 {
		return 0
	}
	return int(sim.SplitMix64(uint64(lba)) % uint64(shards))
}

// SplitRuns cuts req into maximal runs of consecutive pages owned by
// a single shard and invokes fn for each run in page order. With one
// shard the request is passed through whole, preserving the original
// stream exactly.
func SplitRuns(req Request, shards int, fn func(shard int, run Request)) {
	if shards <= 1 {
		fn(0, req)
		return
	}
	n := req.Pages
	if n < 1 {
		n = 1
	}
	runStart := req.LBA
	runShard := ShardOf(req.LBA, shards)
	runLen := 1
	for i := 1; i < n; i++ {
		lba := req.LBA + int64(i)
		s := ShardOf(lba, shards)
		if s == runShard {
			runLen++
			continue
		}
		fn(runShard, Request{Op: req.Op, LBA: runStart, Pages: runLen})
		runStart, runShard, runLen = lba, s, 1
	}
	fn(runShard, Request{Op: req.Op, LBA: runStart, Pages: runLen})
}

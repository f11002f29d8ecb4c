package trace

import (
	"testing"
	"testing/quick"
)

func TestShardOfSingleShard(t *testing.T) {
	for _, lba := range []int64{0, 1, 1 << 40} {
		if ShardOf(lba, 1) != 0 || ShardOf(lba, 0) != 0 {
			t.Fatalf("lba %d not on shard 0 with one shard", lba)
		}
	}
}

func TestShardOfRangeAndDeterminism(t *testing.T) {
	const shards = 8
	counts := make([]int, shards)
	for lba := int64(0); lba < 80000; lba++ {
		s := ShardOf(lba, shards)
		if s < 0 || s >= shards {
			t.Fatalf("ShardOf(%d) = %d outside [0,%d)", lba, s, shards)
		}
		if s != ShardOf(lba, shards) {
			t.Fatalf("ShardOf(%d) not deterministic", lba)
		}
		counts[s]++
	}
	// The avalanche should spread a sequential scan near-uniformly;
	// allow a generous ±20% band around the expected 10000.
	for s, c := range counts {
		if c < 8000 || c > 12000 {
			t.Fatalf("shard %d owns %d of 80000 sequential pages (poor spread)", s, c)
		}
	}
}

func TestSplitRunsSingleShardPassthrough(t *testing.T) {
	req := Request{Op: OpWrite, LBA: 42, Pages: 9}
	var got []Request
	SplitRuns(req, 1, func(s int, r Request) {
		if s != 0 {
			t.Fatalf("shard %d with one shard", s)
		}
		got = append(got, r)
	})
	if len(got) != 1 || got[0] != req {
		t.Fatalf("passthrough broke the request: %+v", got)
	}
}

// TestSplitRunsPartition checks the three split invariants: the runs
// cover every page exactly once in order, each run is a maximal
// consecutive slice owned by one shard, and ops are preserved.
func TestSplitRunsPartition(t *testing.T) {
	f := func(lba int64, pages uint8, shardsRaw uint8) bool {
		shards := int(shardsRaw%7) + 2
		req := Request{Op: OpRead, LBA: lba % (1 << 30), Pages: int(pages % 40)}
		n := req.Pages
		if n < 1 {
			n = 1
		}
		next := req.LBA
		prevShard := -1
		ok := true
		SplitRuns(req, shards, func(s int, run Request) {
			if run.Op != req.Op || run.LBA != next || run.Pages < 1 {
				ok = false
				return
			}
			for i := 0; i < run.Pages; i++ {
				if ShardOf(run.LBA+int64(i), shards) != s {
					ok = false
				}
			}
			if s == prevShard { // adjacent runs on one shard: not maximal
				ok = false
			}
			prevShard = s
			next = run.LBA + int64(run.Pages)
		})
		return ok && next == req.LBA+int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

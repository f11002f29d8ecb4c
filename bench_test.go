package flashdc

// One benchmark per paper table and figure: each regenerates the
// artifact at the quick scale, so `go test -bench=.` exercises the
// whole evaluation pipeline and reports how long each reproduction
// takes. BenchmarkCache* micro-benchmarks time the hot paths of the
// cache itself.

import (
	"fmt"
	"testing"

	"flashdc/internal/experiments"
	"flashdc/internal/sim"
	"flashdc/internal/trace"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	o := experiments.QuickOptions()
	for i := 0; i < b.N; i++ {
		tab := experiments.MustRun(id, o)
		if len(tab.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }
func BenchmarkFig1b(b *testing.B)  { benchExperiment(b, "fig1b") }
func BenchmarkFig4(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkFig6a(b *testing.B)  { benchExperiment(b, "fig6a") }
func BenchmarkFig6b(b *testing.B)  { benchExperiment(b, "fig6b") }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)  { benchExperiment(b, "fig12") }

func BenchmarkAblateSplit(b *testing.B) { benchExperiment(b, "ablate-split") }
func BenchmarkAblateWear(b *testing.B)  { benchExperiment(b, "ablate-wear") }
func BenchmarkAblateHot(b *testing.B)   { benchExperiment(b, "ablate-hot") }
func BenchmarkAblateGC(b *testing.B)    { benchExperiment(b, "ablate-gc") }

// BenchmarkCacheReadHit times the cache hit path (FCHT lookup, device
// read, ECC latency accounting, LRU update).
func BenchmarkCacheReadHit(b *testing.B) {
	c := NewCache(DefaultCacheConfig(16 << 20))
	for i := int64(0); i < 1000; i++ {
		c.Insert(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.Read(int64(i % 1000)).Hit {
			b.Fatal("unexpected miss")
		}
	}
}

// BenchmarkCacheReadHitWorn times BenchmarkCacheReadHit's hit path on
// a cache whose every block has been erased at least once before the
// timer starts, so every read, from the first, evaluates a worn page's
// bit-error count. BenchmarkCacheReadHit's reads reach erased blocks
// only once hot-page promotion has migrated them, after ~100k reads.
func BenchmarkCacheReadHitWorn(b *testing.B) {
	c := NewCache(DefaultCacheConfig(16 << 20))
	// Churn fills, and writes that each overwrite once, over LBAs
	// disjoint from the read set until reclaim has erased every block.
	for lba := int64(1 << 20); !allErased(c); lba++ {
		if lba == 1<<20+100*c.CapacityPages() {
			b.Fatal("churn left a block never erased")
		}
		c.Insert(lba)
		c.Write(lba / 2)
	}
	for i := int64(0); i < 1000; i++ {
		c.Insert(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.Read(int64(i % 1000)).Hit {
			b.Fatal("unexpected miss")
		}
	}
}

// allErased reports whether every block of c has been erased at least
// once.
func allErased(c *Cache) bool {
	for b := 0; b < c.Blocks(); b++ {
		if c.EraseCount(b) == 0 {
			return false
		}
	}
	return true
}

// BenchmarkCacheReadHitFull times the same hit path on a 64 MiB cache
// whose read region is full: 230 populated blocks instead of
// BenchmarkCacheReadHit's handful. Every operation checks the regions'
// free space and, every 32 operations, the read region's valid
// fraction, so a per-operation cost that grows with the populated
// block count shows up here and not in BenchmarkCacheReadHit.
// Promotion is disabled so the reads stay pure hits.
func BenchmarkCacheReadHitFull(b *testing.B) {
	cfg := DefaultCacheConfig(64 << 20)
	cfg.HotSaturation = 1 << 30
	c := NewCache(cfg)
	for i := int64(0); i < 2*c.CapacityPages(); i++ {
		c.Insert(i)
	}
	var cached []int64
	for i := int64(0); i < 2*c.CapacityPages(); i++ {
		if c.Contains(i) {
			cached = append(cached, i)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.Read(cached[i%len(cached)]).Hit {
			b.Fatal("unexpected miss")
		}
	}
}

// BenchmarkCacheWrite times the out-of-place write path including
// background GC amortised over a churning working set.
func BenchmarkCacheWrite(b *testing.B) {
	c := NewCache(DefaultCacheConfig(16 << 20))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Write(int64(i % 4000))
	}
}

// BenchmarkCacheMixed times a 70/30 read/write mix over a working set
// twice the cache size (steady-state miss handling included).
func BenchmarkCacheMixed(b *testing.B) {
	c := NewCache(DefaultCacheConfig(16 << 20))
	rng := sim.NewRNG(1)
	wss := 2 * int(c.CapacityPages())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lba := int64(rng.Intn(wss))
		if rng.Bool(0.3) {
			c.Write(lba)
		} else if !c.Read(lba).Hit {
			c.Insert(lba)
		}
	}
}

// BenchmarkHierarchyRequest times a full request through DRAM, Flash
// and disk models with a dbt2-like access stream, one request per
// RunBatch call of a one-shard engine.
func BenchmarkHierarchyRequest(b *testing.B) {
	e, err := NewEngine(EngineConfig{Shards: 1, Hier: SystemConfig{DRAMBytes: 1 << 20, FlashBytes: 16 << 20, Seed: 1}})
	if err != nil {
		b.Fatal(err)
	}
	g, err := NewWorkload("dbt2", 0.01, 1)
	if err != nil {
		b.Fatal(err)
	}
	req := make([]Request, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req[0] = g.Next()
		e.RunBatch(req)
	}
}

// replayRequests is the length of the engine replay benchmarks' stream.
const replayRequests = 200000

// alpha2Trace packs the engine replay benchmarks' 200k-request Zipf
// stream into an in-memory binary trace, so the timed loops replay a
// pre-generated stream and measure simulation, not generation.
func alpha2Trace(b *testing.B) []byte {
	b.Helper()
	g, err := NewWorkload("alpha2", 1.0/16, 3)
	if err != nil {
		b.Fatal(err)
	}
	buf := trace.AppendBinaryHeader(nil)
	for i := 0; i < replayRequests; i++ {
		buf = trace.AppendBinary(buf, g.Next())
	}
	return buf
}

// benchReplay times b.N replays of the packed trace buf, each through a
// fresh engine built from cfg and driven by RunSource over a zero-copy
// mapping of buf.
func benchReplay(b *testing.B, buf []byte, cfg EngineConfig) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		eng, err := NewEngine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		src, err := trace.MapBytes(buf)
		if err != nil {
			b.Fatal(err)
		}
		if n := eng.RunSource(src, replayRequests); n != replayRequests {
			b.Fatalf("replayed %d requests, want %d", n, replayRequests)
		}
		if got := eng.Stats().Requests; got != replayRequests {
			b.Fatalf("stats count %d requests, want %d", got, replayRequests)
		}
		if cfg.Obs != (ObsOptions{}) {
			if rep := eng.Observe(); len(rep.Snapshots) == 0 {
				b.Fatal("observed run produced no snapshots")
			}
		}
	}
	b.ReportMetric(float64(replayRequests)*float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}

func benchEngineReplay(b *testing.B, o ObsOptions) {
	b.Helper()
	buf := alpha2Trace(b)
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchReplay(b, buf, EngineConfig{
				Shards: shards,
				Hier:   SystemConfig{DRAMBytes: 8 << 20, FlashBytes: 64 << 20, Seed: 3},
				Obs:    o,
			})
		})
	}
}

// BenchmarkEngineReplay times a 200k-request Zipf replay through the
// sharded engine at 1/4/8 shards. The stream is generated and packed
// once outside the timed loop; each iteration routes it through
// Engine.RunSource, so on a multi-core host the sharded runs show the
// engine's wall-clock scaling. Observability is disabled — the
// comparison against BenchmarkEngineReplayObserved measures the
// nil-observer fast path's cost.
func BenchmarkEngineReplay(b *testing.B) { benchEngineReplay(b, ObsOptions{}) }

// BenchmarkEngineReplayObserved is BenchmarkEngineReplay with the full
// observability stack on (metrics registry, 10ms snapshot cadence,
// decision tracing) including the end-of-run merge; its delta over
// BenchmarkEngineReplay is the cost of observing.
func BenchmarkEngineReplayObserved(b *testing.B) {
	benchEngineReplay(b, ObsOptions{
		Metrics:         true,
		MetricsInterval: 10 * Millisecond,
		Trace:           true,
	})
}

// BenchmarkEngineReplayChannels times the 200k-request Zipf replay at
// 4 shards across NAND scheduler geometries: the serial default, pure
// channel striping, and channels+banks+write-buffer. The scheduler
// sits on the replay hot path (every device command books channel and
// bank timelines), so this pins its overhead — and the serial row must
// track BenchmarkEngineReplay/shards=4, since the default geometry is
// the same simulation through the same code path.
func BenchmarkEngineReplayChannels(b *testing.B) {
	buf := alpha2Trace(b)
	for _, geo := range []struct {
		name     string
		channels int
		banks    int
		wbuf     int
	}{
		{"serial", 1, 1, 0},
		{"channels=4", 4, 1, 0},
		{"channels=8-banks=4-wbuf=16", 8, 4, 16},
	} {
		b.Run(geo.name, func(b *testing.B) {
			fc := DefaultCacheConfig(64 << 20)
			fc.Sched = SchedConfig{Channels: geo.channels, Banks: geo.banks, WriteBufPages: geo.wbuf}
			benchReplay(b, buf, EngineConfig{
				Shards: 4,
				Hier:   SystemConfig{DRAMBytes: 8 << 20, FlashBytes: 64 << 20, Seed: 3, Flash: fc},
			})
		})
	}
}

// BenchmarkWorkloadNext times trace generation alone.
func BenchmarkWorkloadNext(b *testing.B) {
	for _, name := range []string{"uniform", "alpha2", "exp1", "dbt2"} {
		b.Run(name, func(b *testing.B) {
			g, err := NewWorkload(name, 0.01, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Next()
			}
		})
	}
}

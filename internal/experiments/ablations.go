package experiments

import (
	"fmt"

	"flashdc/internal/core"
	"flashdc/internal/sim"
	"flashdc/internal/trace"
	"flashdc/internal/workload"
)

func init() {
	register("ablate-split", ablateSplit)
	register("ablate-wear", ablateWear)
	register("ablate-hot", ablateHot)
	register("ablate-gc", ablateGC)
}

// ablateRun drives one cache configuration with the dbt2 workload
// through fig4's protocol and returns the read miss rate, the cache
// stats and the mean hit latency.
func ablateRun(o Options, mutate func(*core.Config), requests int) (float64, core.Stats, sim.Duration) {
	cfg := core.DefaultConfig(int64(float64(512<<20) * o.Scale))
	cfg.Seed = o.Seed
	mutate(&cfg)
	c := core.New(cfg)
	miss, avgHit := readMiss(c, workload.MustNew("dbt2", o.Scale, o.Seed+19), requests/2, requests)
	return miss, c.Stats(), avgHit
}

// ablateSplit sweeps the read/write region split ratio of section 3.5
// around the paper's 90/10 choice.
func ablateSplit(o Options) *Table {
	t := &Table{
		ID:     "ablate-split",
		Title:  "Ablation: read-region fraction of the split disk cache",
		Note:   "dbt2 workload; the paper picks 0.90 from observed write behaviour",
		Header: []string{"read_fraction", "miss_rate", "evictions", "gc_runs"},
	}
	requests := o.Requests
	if requests == 0 {
		requests = 120000
	}
	for _, f := range []float64{0.70, 0.80, 0.90, 0.95} {
		miss, st, _ := ablateRun(o, func(c *core.Config) { c.ReadFraction = f }, requests)
		t.AddRow(f, miss, st.Evictions, st.GCRuns)
	}
	miss, st, _ := ablateRun(o, func(c *core.Config) { c.ReadFraction = 1 }, requests)
	t.AddRow("unified", miss, st.Evictions, st.GCRuns)
	return t
}

// ablateWear sweeps the wear threshold of the section 3.6 replacement
// policy under a write-hot stream (the regime wear levelling exists
// for: a small dirty set hammering the write region) and reports the
// erase-count spread it achieves.
func ablateWear(o Options) *Table {
	t := &Table{
		ID:     "ablate-wear",
		Title:  "Ablation: wear-level threshold of the replacement policy",
		Note:   "hot-write churn with background reads; spread = max-min block erase count; lower spread = better levelling",
		Header: []string{"threshold", "wear_swaps", "erase_min", "erase_max", "erase_spread"},
	}
	requests := o.Requests
	if requests == 0 {
		requests = 150000
	}
	for _, th := range []float64{64, 256, 1024, 1 << 30} {
		cfg := core.DefaultConfig(4 << 20) // small device so wear develops
		cfg.WearThreshold = th
		cfg.Seed = o.Seed
		c := core.New(cfg)
		replayFlash(c, hotWriteChurn(c, o.Seed+23), requests, nil)
		min, max := eraseSpread(c)
		label := fmt.Sprintf("%.0f", th)
		if th >= 1<<30 {
			label = "off"
		}
		t.AddRow(label, c.Stats().WearSwaps, min, max, max-min)
	}
	return t
}

// ablateHot sweeps the saturating-counter ceiling that triggers
// MLC-to-SLC hot page promotion (section 5.2.2).
func ablateHot(o Options) *Table {
	t := &Table{
		ID:     "ablate-hot",
		Title:  "Ablation: hot-page promotion counter saturation",
		Note:   "dbt2 workload; lower saturation promotes more pages to SLC (faster hits, less capacity)",
		Header: []string{"saturation", "miss_rate", "promotions", "avg_hit_latency_us"},
	}
	requests := o.Requests
	if requests == 0 {
		requests = 120000
	}
	for _, sat := range []uint32{8, 32, 64, 256} {
		miss, st, hit := ablateRun(o, func(c *core.Config) { c.HotSaturation = sat }, requests)
		t.AddRow(sat, miss, st.Promotions, hit.Microseconds())
	}
	return t
}

// ablateGC sweeps the read-region GC watermark of section 5.1 under a
// workload whose writes invalidate read-cached pages aggressively
// (Financial1 is write-heavy), which is what creates the read-region
// holes the watermark GC exists to compact.
func ablateGC(o Options) *Table {
	t := &Table{
		ID:     "ablate-gc",
		Title:  "Ablation: read-region GC watermark",
		Note:   "Financial1 (write-heavy) workload; the paper triggers read-region GC below 90% valid",
		Header: []string{"watermark", "miss_rate", "gc_runs", "gc_relocations", "gc_time_ms"},
	}
	requests := o.Requests
	if requests == 0 {
		requests = 150000
	}
	for _, w := range []float64{0.70, 0.80, 0.90, 0.99} {
		cfg := core.DefaultConfig(int64(float64(256<<20) * o.Scale))
		cfg.Watermark = w
		cfg.Seed = o.Seed
		c := core.New(cfg)
		miss, _ := readMiss(c, workload.MustNew("Financial1", o.Scale, o.Seed+29), 0, requests)
		st := c.Stats()
		t.AddRow(w, miss, st.GCRuns, st.GCRelocations,
			float64(st.GCTime)/float64(sim.Millisecond))
	}
	return t
}

// hotWriteChurn is the wear ablations' stream of single-page
// requests: 80% writes to a hot set of capacity/16 pages, the rest
// reads over a cold span of twice the capacity beyond it.
func hotWriteChurn(c *core.Cache, seed uint64) stream {
	rng := sim.NewRNG(seed)
	hot := int(c.CapacityPages() / 16)
	cold := int(c.CapacityPages() * 2)
	return streamFunc(func() trace.Request {
		if rng.Bool(0.8) {
			return trace.Request{Op: trace.OpWrite, LBA: int64(rng.Intn(hot)), Pages: 1}
		}
		return trace.Request{Op: trace.OpRead, LBA: int64(hot + rng.Intn(cold)), Pages: 1}
	})
}

func eraseSpread(c *core.Cache) (min, max int) {
	min, max = 1<<30, 0
	for b := 0; b < c.Blocks(); b++ {
		e := c.EraseCount(b)
		if e < min {
			min = e
		}
		if e > max {
			max = e
		}
	}
	return min, max
}

func init() { register("ablate-wearfn", ablateWearFn) }

// ablateWearFn sweeps the K1/K2 weights of the FBST degree-of-wear
// cost function (section 3.3: wear = N_erase + K1*TotalECC +
// K2*TotalSLC, with K2 > K1 because a density switch signals far more
// wear). The sweep shows how the weighting steers the wear-level
// policy's choice of "newest" block once reconfiguration activity
// accumulates.
func ablateWearFn(o Options) *Table {
	t := &Table{
		ID:     "ablate-wearfn",
		Title:  "Ablation: degree-of-wear cost function weights (K1, K2)",
		Note:   "write-hot churn with accelerated wear; spread = max-min block erase count",
		Header: []string{"k1", "k2", "wear_swaps", "erase_spread", "retired"},
	}
	requests := o.Requests
	if requests == 0 {
		requests = 150000
	}
	for _, ks := range [][2]float64{{0.5, 2}, {2, 20}, {8, 80}} {
		cfg := core.DefaultConfig(4 << 20)
		cfg.K1, cfg.K2 = ks[0], ks[1]
		cfg.WearThreshold = 64
		cfg.WearAcceleration = 200
		cfg.Seed = o.Seed
		c := core.New(cfg)
		replayFlash(c, hotWriteChurn(c, o.Seed+53), requests, nil)
		min, max := eraseSpread(c)
		t.AddRow(ks[0], ks[1], c.Stats().WearSwaps, max-min, c.Stats().RetiredBlocks)
	}
	return t
}

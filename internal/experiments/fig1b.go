package experiments

import (
	"fmt"

	"flashdc/internal/core"
	"flashdc/internal/ftl"
	"flashdc/internal/nand"
	"flashdc/internal/sim"
	"flashdc/internal/wear"
)

func init() {
	register("fig1b", fig1b)
	register("ssd-vs-cache", ssdVsCache)
}

// fig1b reproduces Figure 1(b): garbage collection overhead versus
// occupied Flash space. The figure belongs to the paper's background
// discussion of Flash *file systems* (section 2.2), where — unlike a
// disk cache — every valid page must be preserved, so the cleaner
// relocates more and more live data as occupancy grows. The experiment
// runs the log-structured FTL substrate (internal/ftl) under uniform
// rewrites and reports GC time per host write, normalized to the
// lowest-occupancy point — the hockey stick that made the paper choose
// the disk-cache usage model.
func fig1b(o Options) *Table {
	t := &Table{
		ID:    "fig1b",
		Title: "Normalized garbage collection overhead vs used Flash space",
		Note: fmt.Sprintf("log-structured FTL over a %.4g-scale 2GB SLC device; normalized to the 30%% point",
			o.Scale),
		Header: []string{"used_space_pct", "gc_time_per_write_us", "normalized_overhead"},
	}
	blocks := nand.BlocksForCapacity(int64(float64(2<<30)*o.Scale), wear.SLC)
	if blocks < 64 {
		blocks = 64 // keep the 95% point feasible with the GC reserve
	}
	writes := o.Requests
	if writes == 0 {
		writes = 100000
	}
	type point struct {
		pct      float64
		perWrite float64
	}
	var pts []point
	for _, u := range []float64{0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.85, 0.90, 0.95} {
		perWrite, _ := ftlGCOverhead(o.Seed, o.Seed+31, blocks, u, writes)
		pts = append(pts, point{u * 100, perWrite})
	}
	norm := pts[0].perWrite
	if norm <= 0 {
		norm = 1e-9
	}
	for _, p := range pts {
		t.AddRow(p.pct, p.perWrite, p.perWrite/norm)
	}
	return t
}

// ftlGCOverhead fills an FTL of the given blocks and device seed to
// the target occupancy, rewrites the logical space uniformly at random
// from rngSeed, and returns the rewrites' average GC microseconds per
// host write and their write amplification.
func ftlGCOverhead(seed, rngSeed uint64, blocks int, occupancy float64, writes int) (gcPerWrite, writeAmp float64) {
	f := ftl.New(ftl.Config{Blocks: blocks, Seed: seed})
	rng := sim.NewRNG(rngSeed)
	logical := int(float64(f.CapacityPages()) * occupancy)
	if logical > f.UsablePages() {
		logical = f.UsablePages()
	}
	if logical < 1 {
		logical = 1
	}
	for l := 0; l < logical; l++ {
		if _, err := f.Write(int64(l)); err != nil {
			panic(err)
		}
	}
	before := f.Stats()
	for i := 0; i < writes; i++ {
		if _, err := f.Write(int64(rng.Intn(logical))); err != nil {
			panic(err)
		}
	}
	after := f.Stats()
	gcPerWrite = (after.GCTime - before.GCTime).Microseconds() / float64(writes)
	writeAmp = float64(after.HostWrites-before.HostWrites+after.GCRelocations-before.GCRelocations) /
		float64(after.HostWrites-before.HostWrites)
	return gcPerWrite, writeAmp
}

// ssdVsCache contrasts the two Flash usage models the paper's
// background section weighs (section 2.2): Flash as a solid-state disk
// (the FTL must preserve all data, so GC overhead and write
// amplification explode with occupancy) versus Flash as a disk cache
// (eviction is always legal, so the write path stays cheap at any
// occupancy). Both serve the same rewrite-heavy stream on the same
// device size.
func ssdVsCache(o Options) *Table {
	t := &Table{
		ID:    "ssd-vs-cache",
		Title: "Flash as SSD (FTL) vs Flash as disk cache: write cost vs occupancy",
		Note: fmt.Sprintf("identical %.4g-scale 512MB SLC device and uniform rewrite stream; cache evicts, FTL must preserve",
			o.Scale),
		Header: []string{"occupancy_pct", "ftl_write_amp", "ftl_gc_us_per_write", "cache_gc_us_per_write"},
	}
	writes := o.Requests
	if writes == 0 {
		writes = 60000
	}
	blocks := nand.BlocksForCapacity(int64(float64(512<<20)*o.Scale), wear.SLC)
	if blocks < 64 {
		blocks = 64
	}
	for _, u := range []float64{0.50, 0.70, 0.85, 0.95} {
		// SSD usage model, then the disk-cache usage model over the same
		// device and stream.
		ftlGC, wa := ftlGCOverhead(o.Seed, o.Seed+37, blocks, u, writes)
		cacheGC := cacheWriteOverhead(o.Seed, blocks, u, writes)

		t.AddRow(u*100, wa, ftlGC, cacheGC)
	}
	return t
}

// cacheWriteOverhead measures the disk cache's background GC time per
// write under the same occupancy and stream as the FTL comparison.
func cacheWriteOverhead(seed uint64, blocks int, occupancy float64, writes int) float64 {
	c := newUnifiedCache(int64(blocks)*nand.SlotsPerBlock*nand.PageSize, seed)
	rng := sim.NewRNG(seed + 37)
	capPages := c.CapacityPages()
	logical := int(float64(capPages) * occupancy)
	if logical < 1 {
		logical = 1
	}
	for l := 0; l < logical; l++ {
		c.Write(int64(l))
	}
	before := c.Stats()
	for i := 0; i < writes; i++ {
		c.Write(int64(rng.Intn(logical)))
	}
	after := c.Stats()
	return (after.GCTime - before.GCTime).Microseconds() / float64(writes)
}

// newUnifiedCache builds a unified (non-split) disk cache in SLC mode
// for the usage-model comparison.
func newUnifiedCache(flashBytes int64, seed uint64) *core.Cache {
	cfg := core.DefaultConfig(flashBytes)
	cfg.ReadFraction = 1
	cfg.Programmable = false
	cfg.InitialMode = wear.SLC
	cfg.Seed = seed
	return core.New(cfg)
}

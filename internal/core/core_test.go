package core

import (
	"math"
	"strings"
	"testing"

	"flashdc/internal/nand"
	"flashdc/internal/sim"
	"flashdc/internal/wear"
)

// recorder is a Backing that logs write-backs.
type recorder struct {
	pages []int64
	lat   sim.Duration
}

func (r *recorder) WritePage(lba int64) sim.Duration {
	r.pages = append(r.pages, lba)
	return r.lat
}

const testMB = 1 << 20

func smallCache(t *testing.T, over func(*Config)) *Cache {
	t.Helper()
	cfg := DefaultConfig(8 * testMB) // 32 MLC blocks
	cfg.Seed = 42
	if over != nil {
		over(&cfg)
	}
	return New(cfg)
}

// checkInvariants validates the cross-table consistency the design
// depends on: FCHT size equals the valid-page population, every FCHT
// entry points at a valid page holding that LBA, and per-block valid
// counters match the FPST.
func checkInvariants(t *testing.T, c *Cache) {
	t.Helper()
	var valid int64
	for b := range c.meta {
		if c.meta[b].state == blockRetired {
			continue
		}
		blockValid := 0
		for _, a := range c.appendValidPagesOf(nil, b) {
			st := c.fpst.At(a)
			if st.LBA < 0 {
				t.Fatalf("valid page %v with invalid LBA", a)
			}
			got, ok := c.fcht.Get(st.LBA)
			if !ok || got != a {
				t.Fatalf("FCHT/FPST disagree for lba %d at %v (fcht: %v,%v)", st.LBA, a, got, ok)
			}
			blockValid++
		}
		if blockValid != c.meta[b].valid {
			t.Fatalf("block %d: meta.valid=%d, actual=%d", b, c.meta[b].valid, blockValid)
		}
		if c.meta[b].consumed < c.meta[b].valid {
			t.Fatalf("block %d: consumed %d < valid %d", b, c.meta[b].consumed, c.meta[b].valid)
		}
		valid += int64(blockValid)
	}
	if valid != c.totalValid {
		t.Fatalf("totalValid=%d, actual=%d", c.totalValid, valid)
	}
	if int64(c.fcht.Len()) != valid {
		t.Fatalf("FCHT has %d entries, %d valid pages", c.fcht.Len(), valid)
	}
}

// TestNewValidation: New panics on every configuration Validate
// rejects, a zeroed DefaultConfig field among them: New fills in no
// defaults.
func TestNewValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		over func(*Config)
		want string
	}{
		{"too small", func(cfg *Config) { cfg.FlashBytes = 100 }, "too small"},
		{"beyond page addresses", func(cfg *Config) { cfg.FlashBytes = (nand.MaxBlocks + 1) << 18 }, "16777217 blocks (at most 16777216)"},
		{"read fraction above 1", func(cfg *Config) { cfg.ReadFraction = 1.5 }, "read fraction"},
		{"zero read fraction", func(cfg *Config) { cfg.ReadFraction = 0 }, "read fraction"},
		{"watermark above 1", func(cfg *Config) { cfg.Watermark = 2 }, "watermark"},
		{"zero watermark", func(cfg *Config) { cfg.Watermark = 0 }, "watermark"},
		{"zero K1", func(cfg *Config) { cfg.K1 = 0 }, "K1"},
		{"zero hot saturation", func(cfg *Config) { cfg.HotSaturation = 0 }, "hot saturation"},
		{"zero wear threshold", func(cfg *Config) { cfg.WearThreshold = 0 }, "wear threshold"},
		{"zero miss penalty", func(cfg *Config) { cfg.MissPenalty = 0 }, "miss penalty"},
		{"NaN wear acceleration", func(cfg *Config) { cfg.WearAcceleration = math.NaN() }, "wear acceleration"},
		{"zero config", func(cfg *Config) { *cfg = Config{FlashBytes: 8 * testMB} }, "read fraction"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(8 * testMB)
			tc.over(&cfg)
			if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want an error containing %q", err, tc.want)
			}
			defer func() {
				if recover() == nil {
					t.Fatal("bad config did not panic")
				}
			}()
			New(cfg)
		})
	}
}

func TestReadMissInsertHit(t *testing.T) {
	c := smallCache(t, nil)
	if out := c.Read(7); out.Hit {
		t.Fatal("cold read hit")
	}
	c.Insert(7)
	out := c.Read(7)
	if !out.Hit {
		t.Fatal("inserted page missed")
	}
	// Hit latency = MLC read + clean decode at strength 1.
	if out.Latency < 50*sim.Microsecond || out.Latency > 200*sim.Microsecond {
		t.Fatalf("hit latency %v implausible", out.Latency)
	}
	if !c.Contains(7) || c.ValidPages() != 1 {
		t.Fatal("bookkeeping wrong after insert")
	}
	checkInvariants(t, c)
}

func TestInsertIdempotent(t *testing.T) {
	c := smallCache(t, nil)
	c.Insert(5)
	c.Insert(5)
	if c.ValidPages() != 1 {
		t.Fatalf("duplicate insert created %d pages", c.ValidPages())
	}
	checkInvariants(t, c)
}

func TestWriteThenReadHits(t *testing.T) {
	c := smallCache(t, nil)
	c.Write(9)
	if !c.Contains(9) {
		t.Fatal("written page not cached")
	}
	if out := c.Read(9); !out.Hit {
		t.Fatal("written page missed on read")
	}
	checkInvariants(t, c)
}

func TestWriteInvalidatesReadCopy(t *testing.T) {
	c := smallCache(t, nil)
	c.Insert(11) // goes to read region
	addrBefore, _ := c.fcht.Get(11)
	c.Write(11) // must move to write region out-of-place
	addrAfter, ok := c.fcht.Get(11)
	if !ok {
		t.Fatal("page vanished")
	}
	if addrBefore == addrAfter {
		t.Fatal("write was not out-of-place")
	}
	if c.meta[addrAfter.Block()].region != writeRegion {
		t.Fatal("written page not in write region")
	}
	if c.ValidPages() != 1 {
		t.Fatalf("ValidPages = %d", c.ValidPages())
	}
	checkInvariants(t, c)
}

func TestRewriteIsOutOfPlace(t *testing.T) {
	c := smallCache(t, nil)
	c.Write(3)
	a1, _ := c.fcht.Get(3)
	c.Write(3)
	a2, _ := c.fcht.Get(3)
	if a1 == a2 {
		t.Fatal("rewrite reused the same Flash page without erase")
	}
	checkInvariants(t, c)
}

func TestCapacityEviction(t *testing.T) {
	c := smallCache(t, nil)
	// Insert far more pages than the read region holds.
	capPages := c.CapacityPages()
	n := int(capPages) * 2
	for i := 0; i < n; i++ {
		c.Insert(int64(i))
	}
	if c.stats.Evictions == 0 {
		t.Fatal("no evictions despite 2x capacity insertions")
	}
	if c.ValidPages() > capPages {
		t.Fatalf("valid pages %d exceed capacity %d", c.ValidPages(), capPages)
	}
	checkInvariants(t, c)
}

func TestEvictionFlushesDirtyPages(t *testing.T) {
	rec := &recorder{}
	c := smallCache(t, func(cfg *Config) { cfg.Backing = rec })
	// Overflow the (small) write region with distinct dirty pages.
	for i := 0; i < 3000; i++ {
		c.Write(int64(i))
	}
	if len(rec.pages) == 0 {
		t.Fatal("write-region overflow never flushed to backing")
	}
	checkInvariants(t, c)
}

func TestReadEvictionDoesNotFlush(t *testing.T) {
	rec := &recorder{}
	c := smallCache(t, func(cfg *Config) { cfg.Backing = rec })
	capPages := int(c.CapacityPages())
	for i := 0; i < capPages*2; i++ {
		c.Insert(int64(i))
	}
	if len(rec.pages) != 0 {
		t.Fatal("clean read pages were flushed to backing")
	}
}

func TestFlushWritesEverythingDirty(t *testing.T) {
	rec := &recorder{}
	c := smallCache(t, func(cfg *Config) { cfg.Backing = rec })
	for i := 0; i < 50; i++ {
		c.Write(int64(i))
	}
	before := len(rec.pages)
	n := c.Flush()
	if n != 50 {
		t.Fatalf("Flush flushed %d pages, want 50", n)
	}
	if len(rec.pages)-before != 50 {
		t.Fatal("backing did not receive the flush")
	}
	// After flush the pages are gone from Flash.
	if c.Contains(10) {
		t.Fatal("flushed page still cached")
	}
	checkInvariants(t, c)
}

func TestGCReclaimsInvalidSpace(t *testing.T) {
	c := smallCache(t, nil)
	// Repeatedly rewriting a small working set creates invalid pages
	// that only GC can reclaim.
	for round := 0; round < 200; round++ {
		for i := 0; i < 64; i++ {
			c.Write(int64(i))
		}
	}
	st := c.Stats()
	if st.GCRuns == 0 {
		t.Fatalf("no GC despite write churn: %+v", st)
	}
	// The working set must still be resident (GC preserves valid data).
	for i := 0; i < 64; i++ {
		if !c.Contains(int64(i)) {
			t.Fatalf("page %d lost by GC", i)
		}
	}
	checkInvariants(t, c)
}

func TestUnifiedCacheServesBothPaths(t *testing.T) {
	c := smallCache(t, func(cfg *Config) { cfg.ReadFraction = 1 })
	if len(c.regions) != 1 {
		t.Fatal("unified cache built two regions")
	}
	c.Insert(1)
	c.Write(2)
	if !c.Contains(1) || !c.Contains(2) {
		t.Fatal("unified cache lost pages")
	}
	for i := 0; i < 5000; i++ {
		c.Write(int64(i % 500))
		c.Insert(int64(1000 + i))
	}
	checkInvariants(t, c)
}

func TestSplitBeatsUnifiedMissRate(t *testing.T) {
	// The Figure 4 claim: with a mixed read/write working set larger
	// than the cache, the split organisation has the lower miss rate.
	run := func(readFraction float64) float64 {
		cfg := DefaultConfig(8 * testMB)
		cfg.ReadFraction = readFraction
		cfg.Seed = 7
		c := New(cfg)
		rng := sim.NewRNG(99)
		// OLTP-shaped traffic (dbt2-like): reads spread over 3x the
		// cache, writes concentrated on a hot subset (dirty rows and
		// indices) with a disk-level write share of ~15%.
		reads, err := sim.NewZipf(rng, 3*int(c.CapacityPages()), 1.1)
		if err != nil {
			t.Fatal(err)
		}
		writes, err := sim.NewZipf(rng, int(c.CapacityPages())/10, 1.1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 120000; i++ {
			if rng.Bool(0.15) {
				c.Write(int64(writes.Next()))
			} else {
				lba := int64(reads.Next())
				if !c.Read(lba).Hit {
					c.Insert(lba)
				}
			}
		}
		return c.Stats().MissRate()
	}
	splitMiss := run(0.9)
	unifiedMiss := run(1)
	if splitMiss >= unifiedMiss {
		t.Fatalf("split miss %.4f not better than unified %.4f", splitMiss, unifiedMiss)
	}
}

func TestHotPagePromotionToSLC(t *testing.T) {
	c := smallCache(t, func(cfg *Config) { cfg.HotSaturation = 8 })
	c.Insert(77)
	for i := 0; i < 10; i++ {
		if !c.Read(77).Hit {
			t.Fatal("hot page missed")
		}
	}
	if c.Stats().Promotions != 1 {
		t.Fatalf("promotions = %d, want 1", c.Stats().Promotions)
	}
	addr, _ := c.fcht.Get(77)
	if c.dev.Mode(addr) != wear.SLC {
		t.Fatal("promoted page not SLC")
	}
	// SLC hit must now be faster than the MLC hit was.
	out := c.Read(77)
	if !out.Hit || out.Latency >= 50*sim.Microsecond {
		t.Fatalf("promoted hit latency %v, want < MLC read", out.Latency)
	}
	checkInvariants(t, c)
}

func TestNoPromotionWhenNotProgrammable(t *testing.T) {
	c := smallCache(t, func(cfg *Config) {
		cfg.Programmable = false
		cfg.HotSaturation = 4
	})
	c.Insert(5)
	for i := 0; i < 10; i++ {
		c.Read(5)
	}
	if c.Stats().Promotions != 0 {
		t.Fatal("baseline controller promoted a page")
	}
}

func TestReconfigurationUnderWear(t *testing.T) {
	c := smallCache(t, func(cfg *Config) {
		cfg.WearAcceleration = 2000
		cfg.SigmaSpatial = 0.05
	})
	rng := sim.NewRNG(3)
	for i := 0; i < 60000 && !c.Dead(); i++ {
		lba := int64(rng.Intn(2000))
		if rng.Bool(0.5) {
			c.Write(lba)
		} else if !c.Read(lba).Hit {
			c.Insert(lba)
		}
	}
	g := c.Global()
	if g.ECCReconfigs+g.DensityReconfigs == 0 {
		t.Fatal("no reconfiguration events despite accelerated wear")
	}
}

func TestBaselineControllerRetiresEarly(t *testing.T) {
	run := func(programmable bool) int64 {
		cfg := DefaultConfig(4 * testMB)
		cfg.Programmable = programmable
		cfg.WearAcceleration = 5000
		cfg.Seed = 5
		c := New(cfg)
		rng := sim.NewRNG(8)
		var ops int64
		for !c.Dead() && ops < 3_000_000 {
			lba := int64(rng.Intn(1500))
			if rng.Bool(0.7) {
				c.Write(lba)
			} else if !c.Read(lba).Hit {
				c.Insert(lba)
			}
			ops++
		}
		return ops
	}
	progLife := run(true)
	baseLife := run(false)
	if baseLife >= progLife {
		t.Fatalf("programmable lifetime %d not better than BCH-1 %d", progLife, baseLife)
	}
	// The paper reports ~20x; require at least a meaningful multiple.
	if progLife < 3*baseLife {
		t.Fatalf("lifetime gain only %.1fx (prog=%d base=%d)",
			float64(progLife)/float64(baseLife), progLife, baseLife)
	}
}

func TestWearLevelingNarrowsEraseSpread(t *testing.T) {
	run := func(threshold float64) (int, int) {
		cfg := DefaultConfig(4 * testMB)
		cfg.WearThreshold = threshold
		cfg.Seed = 11
		c := New(cfg)
		rng := sim.NewRNG(13)
		// Hammer a tiny hot set of writes: without wear-leveling the
		// write region blocks wear far faster than read blocks.
		for i := 0; i < 150000; i++ {
			if rng.Bool(0.8) {
				c.Write(int64(rng.Intn(64)))
			} else {
				lba := int64(1000 + rng.Intn(4000))
				if !c.Read(lba).Hit {
					c.Insert(lba)
				}
			}
		}
		min, max := 1<<30, 0
		for b := 0; b < c.dev.Blocks(); b++ {
			e := c.dev.EraseCount(b)
			if e < min {
				min = e
			}
			if e > max {
				max = e
			}
		}
		return min, max
	}
	minWL, maxWL := run(64)        // aggressive wear-leveling
	minNo, maxNo := run(1_000_000) // threshold never reached
	spreadWL := maxWL - minWL
	spreadNo := maxNo - minNo
	if spreadWL >= spreadNo {
		t.Fatalf("wear-leveling did not narrow erase spread: %d (on) vs %d (off)",
			spreadWL, spreadNo)
	}
	if minWL == 0 {
		t.Fatal("wear-leveling left blocks never erased")
	}
}

func TestDeadCacheDegradesGracefully(t *testing.T) {
	rec := &recorder{}
	cfg := DefaultConfig(4 * testMB)
	cfg.Programmable = false
	cfg.WearAcceleration = 50000
	cfg.Backing = rec
	cfg.Seed = 17
	c := New(cfg)
	rng := sim.NewRNG(19)
	for i := 0; i < 2_000_000 && !c.Dead(); i++ {
		c.Write(int64(rng.Intn(800)))
	}
	if !c.Dead() {
		t.Skip("cache did not die within budget; acceleration too low")
	}
	// A dead cache must still pass operations through to the backing.
	before := len(rec.pages)
	c.Write(123456)
	if len(rec.pages) != before+1 {
		t.Fatal("dead cache dropped a write")
	}
	if c.Read(123456).Hit {
		t.Fatal("dead cache claimed a hit")
	}
}

func TestStatsAndMissRate(t *testing.T) {
	c := smallCache(t, nil)
	c.Read(1) // miss
	c.Insert(1)
	c.Read(1) // hit
	c.Read(2) // miss
	st := c.Stats()
	if st.Reads != 3 || st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats %+v", st)
	}
	if st.MissRate() != 2.0/3 {
		t.Fatalf("miss rate %v", st.MissRate())
	}
	if (Stats{}).MissRate() != 0 {
		t.Fatal("zero-stats miss rate")
	}
}

func TestRandomOpsPreserveInvariants(t *testing.T) {
	c := smallCache(t, func(cfg *Config) { cfg.WearAcceleration = 100 })
	rng := sim.NewRNG(23)
	for i := 0; i < 30000; i++ {
		lba := int64(rng.Intn(6000))
		switch rng.Intn(3) {
		case 0:
			if !c.Read(lba).Hit {
				c.Insert(lba)
			}
		case 1:
			c.Write(lba)
		case 2:
			c.Read(lba)
		}
	}
	checkInvariants(t, c)
	// Device-level sanity: programs never exceed capacity*erases+capacity.
	dst := c.DeviceStats()
	if dst.Programs == 0 || dst.Erases == 0 {
		t.Fatal("device never exercised")
	}
}

func TestUncorrectableReadBecomesMiss(t *testing.T) {
	c := smallCache(t, func(cfg *Config) {
		cfg.Programmable = false
		cfg.WearAcceleration = 1e7 // pages fail almost immediately after wear
		cfg.SigmaSpatial = 0.0
	})
	// Cycle the write region until pages carry bit errors beyond
	// strength 1, then check reads turn into misses rather than bogus
	// hits.
	rng := sim.NewRNG(29)
	sawUncorrectable := false
	for i := 0; i < 400000 && !c.Dead(); i++ {
		lba := int64(rng.Intn(300))
		c.Write(lba)
		if c.Stats().Uncorrectable > 0 {
			sawUncorrectable = true
			break
		}
		c.Read(lba)
	}
	if !sawUncorrectable && !c.Dead() {
		t.Fatal("wear never produced an uncorrectable read")
	}
}

func TestDefaultConfigValues(t *testing.T) {
	cfg := DefaultConfig(1 << 30)
	if cfg.ReadFraction != 0.9 || !cfg.Programmable {
		t.Fatal("defaults do not match the paper")
	}
	if cfg.baseStrength() != 1 || cfg.InitialMode != wear.MLC {
		t.Fatal("base controller config wrong")
	}
	if cfg.Watermark != 0.90 {
		t.Fatal("GC watermark wrong")
	}
}

func TestRegionSizing(t *testing.T) {
	c := smallCache(t, nil)
	total := c.regions[readRegion].blocks + c.regions[writeRegion].blocks
	if total != c.dev.Blocks() {
		t.Fatalf("regions cover %d of %d blocks", total, c.dev.Blocks())
	}
	frac := float64(c.regions[readRegion].blocks) / float64(total)
	if frac < 0.85 || frac > 0.95 {
		t.Fatalf("read fraction %v, want ~0.9", frac)
	}
}

func TestCapacityPagesShrinksWithPromotion(t *testing.T) {
	c := smallCache(t, func(cfg *Config) { cfg.HotSaturation = 2 })
	before := c.CapacityPages()
	c.Insert(1)
	c.Read(1)
	c.Read(1) // saturates -> promotes to SLC (slot loses one page)
	if c.Stats().Promotions == 0 {
		t.Fatal("promotion did not fire")
	}
	after := c.CapacityPages()
	if after >= before {
		t.Fatalf("capacity did not shrink after SLC conversion: %d -> %d", before, after)
	}
	_ = nand.PageSize
}

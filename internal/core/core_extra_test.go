package core

import (
	"bytes"
	"fmt"
	"testing"

	"flashdc/internal/ecc"
	"flashdc/internal/sim"
	"flashdc/internal/trace"
	"flashdc/internal/wear"
	"flashdc/internal/workload"
)

// regionPopulation sums block counts over a cache's regions.
func regionPopulation(c *Cache) int {
	total := 0
	for _, r := range c.regions {
		total += r.blocks
	}
	return total
}

func TestRegionPopulationConservedUnderWearRotation(t *testing.T) {
	cfg := DefaultConfig(4 * testMB)
	cfg.WearThreshold = 32 // rotate aggressively
	cfg.Seed = 31
	c := New(cfg)
	before := regionPopulation(c)
	readBlocks := c.regions[readRegion].blocks
	rng := sim.NewRNG(33)
	for i := 0; i < 120000; i++ {
		if rng.Bool(0.8) {
			c.Write(int64(rng.Intn(48)))
		} else {
			lba := int64(1000 + rng.Intn(3000))
			if !c.Read(lba).Hit {
				c.Insert(lba)
			}
		}
	}
	if c.Stats().WearSwaps == 0 {
		t.Fatal("no wear rotations; test is vacuous")
	}
	if got := regionPopulation(c); got != before {
		t.Fatalf("region population changed: %d -> %d", before, got)
	}
	// Rotations swap block identities between regions but must keep
	// each region's size.
	if got := c.regions[readRegion].blocks; got != readBlocks {
		t.Fatalf("read region size changed: %d -> %d", readBlocks, got)
	}
	checkInvariants(t, c)
}

func TestGCPreservesStagedStrength(t *testing.T) {
	c := smallCache(t, nil)
	// Insert pages, stage a stronger ECC on one, then force GC churn
	// in the read region and check the staging survived relocation.
	for i := int64(0); i < 200; i++ {
		c.Insert(i)
	}
	addr, _ := c.fcht.Get(50)
	c.fpst.At(addr).StagedStrength = 7
	region := c.regions[c.meta[addr.Block()].region]
	c.backgroundGC(region, true) // may or may not pick that block
	// Relocate explicitly until page 50 moved.
	for tries := 0; tries < 64; tries++ {
		cur, ok := c.fcht.Get(50)
		if !ok {
			t.Fatal("page 50 lost")
		}
		if cur != addr {
			if got := c.fpst.At(cur).StagedStrength; got < 7 {
				t.Fatalf("relocation dropped staged strength: %d", got)
			}
			return
		}
		c.backgroundGC(region, true)
	}
	t.Skip("GC never relocated the staged page; nothing to verify")
}

func TestUnifiedProgrammableCombination(t *testing.T) {
	cfg := DefaultConfig(4 * testMB)
	cfg.ReadFraction = 1
	cfg.Programmable = true
	cfg.WearAcceleration = 2000
	cfg.Seed = 35
	c := New(cfg)
	rng := sim.NewRNG(37)
	for i := 0; i < 60000 && !c.Dead(); i++ {
		lba := int64(rng.Intn(1500))
		if rng.Bool(0.5) {
			c.Write(lba)
		} else if !c.Read(lba).Hit {
			c.Insert(lba)
		}
	}
	g := c.Global()
	if g.ECCReconfigs+g.DensityReconfigs == 0 {
		t.Fatal("programmable controller inert in unified mode")
	}
	checkInvariants(t, c)
}

func TestInsertAndFlushOnDeadCache(t *testing.T) {
	rec := &recorder{}
	cfg := DefaultConfig(4 * testMB)
	cfg.Programmable = false
	cfg.WearAcceleration = 1e6
	cfg.Backing = rec
	cfg.Seed = 39
	c := New(cfg)
	rng := sim.NewRNG(41)
	for i := 0; i < 3_000_000 && !c.Dead(); i++ {
		c.Write(int64(rng.Intn(500)))
	}
	if !c.Dead() {
		t.Skip("cache survived the budget")
	}
	if lat := c.Insert(99999); lat != 0 {
		t.Fatal("dead cache accepted an insert")
	}
	if c.Contains(99999) {
		t.Fatal("dead cache claims to hold a page")
	}
	c.Flush() // must not panic
}

func TestForcedStrengthPinsPages(t *testing.T) {
	cfg := DefaultConfig(8 * testMB)
	cfg.ForcedStrength = 20 // beyond hardware limit, Figure 10 style
	cfg.Seed = 43
	c := New(cfg)
	c.Insert(1)
	d, ok := c.DescriptorFor(1)
	if !ok || d.Strength != 20 {
		t.Fatalf("forced strength not applied: %+v", d)
	}
	// Programmable machinery must be off.
	for i := 0; i < 100; i++ {
		c.Read(1)
	}
	if c.Stats().Promotions != 0 {
		t.Fatal("forced-strength cache promoted a page")
	}
}

// TestForcedStrengthRoundTrip pins that a cache accepts its own
// metadata image and checkpoint at a forced strength beyond the
// controller limit: the Figure 10 caches go up to 64, so rejecting
// them would force a cold start.
func TestForcedStrengthRoundTrip(t *testing.T) {
	for _, s := range []ecc.Strength{12, 16} {
		t.Run(fmt.Sprint(s), func(t *testing.T) {
			cfg := DefaultConfig(8 * testMB)
			cfg.ForcedStrength = s
			cfg.Seed = 47
			c := New(cfg)
			for lba := int64(0); lba < 200; lba++ {
				c.Insert(lba)
				c.Write(1000 + lba)
			}
			var buf bytes.Buffer
			if err := c.SaveMetadata(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := loadMetadata(cfg, &buf)
			if err != nil {
				t.Fatalf("metadata image: %v", err)
			}
			if loaded.ValidPages() != c.ValidPages() {
				t.Fatalf("metadata image: valid pages %d != %d", loaded.ValidPages(), c.ValidPages())
			}
			ck, err := c.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			restored := New(cfg)
			if err := restored.Restore(ck); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
			if d, ok := restored.DescriptorFor(1000); !ok || d.Strength != s {
				t.Fatalf("checkpoint: descriptor %+v, want strength %d", d, s)
			}
		})
	}
}

func TestForcedStrengthValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("forced strength 100 accepted")
		}
	}()
	cfg := DefaultConfig(8 * testMB)
	cfg.ForcedStrength = 100
	New(cfg)
}

// TestAssumeWornChargesFullDecode: a forced strength models a worn
// device, so every hit pays the full decode even with no bit errors.
func TestAssumeWornChargesFullDecode(t *testing.T) {
	base := smallCache(t, nil)
	worn := smallCache(t, func(cfg *Config) { cfg.ForcedStrength = 1 })
	base.Insert(1)
	worn.Insert(1)
	lFresh := base.Read(1).Latency
	lWorn := worn.Read(1).Latency
	if lWorn <= lFresh {
		t.Fatalf("worn assumption did not increase hit latency: %v vs %v", lWorn, lFresh)
	}
	// The delta should be roughly the Chien+Berlekamp cost at t=1.
	lm := ecc.DefaultLatencyModel()
	want := lm.DecodeLatency(1) - lm.DecodeLatencyClean(1)
	if got := lWorn - lFresh; got != want {
		t.Fatalf("decode delta %v, want %v", got, want)
	}
}

func TestWriteRegionNeverServesFills(t *testing.T) {
	c := smallCache(t, nil)
	capPages := int(c.CapacityPages())
	for i := 0; i < capPages*2; i++ {
		c.Insert(int64(i))
	}
	// Every valid fill must live in the read region.
	for b := range c.meta {
		if c.meta[b].region != readRegion && c.meta[b].valid > 0 {
			t.Fatalf("block %d in region %d holds fills", b, c.meta[b].region)
		}
	}
}

func TestEraseAppliesStagedDensity(t *testing.T) {
	c := smallCache(t, nil)
	c.Insert(7)
	addr, _ := c.fcht.Get(7)
	// Stage a density reduction on the slot, then force the block
	// through eviction and check the slot comes back SLC.
	slot := c.fpst.Slot(addr)
	slot.StagedMode = wear.SLC
	c.evictBlock(addr.Block())
	if got := c.dev.Mode(addr); got != wear.SLC {
		t.Fatalf("staged density not applied on erase: %v", got)
	}
	if slot.StagedMode != wear.SLC {
		t.Fatalf("staged density %v did not survive the erase", slot.StagedMode)
	}
	checkInvariants(t, c)
}

func TestLongRandomRunPeriodicInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("long run")
	}
	c := smallCache(t, func(cfg *Config) {
		cfg.WearAcceleration = 500
		cfg.HotSaturation = 16
	})
	rng := sim.NewRNG(47)
	for epoch := 0; epoch < 10; epoch++ {
		for i := 0; i < 8000; i++ {
			lba := int64(rng.Intn(8000))
			switch rng.Intn(4) {
			case 0, 1:
				if !c.Read(lba).Hit {
					c.Insert(lba)
				}
			case 2:
				c.Write(lba)
			case 3:
				c.Read(lba)
			}
		}
		checkInvariants(t, c)
	}
}

// TestMissRateInvariantUnderAddressPermutation is a strong property of
// a recency-based cache: permuting the disk address space must leave
// the miss rate unchanged (the cache keys on identity, not locality).
// It guards against accidental address-dependent behaviour sneaking
// into allocation or GC.
func TestMissRateInvariantUnderAddressPermutation(t *testing.T) {
	run := func(scramble bool) float64 {
		cfg := DefaultConfig(8 * testMB)
		cfg.Seed = 51
		c := New(cfg)
		var g workload.Generator = workload.MustNew("alpha2", 0.002, 53)
		if scramble {
			g = workload.NewScrambled(workload.MustNew("alpha2", 0.002, 53), 55)
		}
		for i := 0; i < 80000; i++ {
			r := g.Next()
			r.Expand(func(lba int64) {
				if r.Op == trace.OpWrite {
					c.Write(lba)
					return
				}
				if !c.Read(lba).Hit {
					c.Insert(lba)
				}
			})
		}
		return c.Stats().MissRate()
	}
	plain := run(false)
	scrambled := run(true)
	if plain != scrambled {
		t.Fatalf("miss rate depends on address layout: %v vs %v", plain, scrambled)
	}
}

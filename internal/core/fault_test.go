package core

import (
	"testing"

	"flashdc/internal/fault"
	"flashdc/internal/sim"
)

// faultyCache builds a small cache with a fault campaign attached.
func faultyCache(t *testing.T, plan fault.Plan, over func(*Config)) *Cache {
	t.Helper()
	return smallCache(t, func(cfg *Config) {
		cfg.Faults = &plan
		if over != nil {
			over(cfg)
		}
	})
}

func TestReadRetryRecoversTransientFlips(t *testing.T) {
	// Flip rate high, flips small: overflows happen constantly but a
	// retry (re-sampling the transient flips, escalating decode
	// strength) recovers essentially all of them.
	c := faultyCache(t, fault.Plan{Seed: 3, ReadFlipRate: 0.5, ReadFlipMax: 2}, nil)
	for lba := int64(0); lba < 200; lba++ {
		c.Insert(lba)
	}
	hits := 0
	for round := 0; round < 20; round++ {
		for lba := int64(0); lba < 200; lba++ {
			if c.Read(lba).Hit {
				hits++
			}
		}
	}
	st := c.Stats()
	if st.TransientFlips == 0 {
		t.Fatal("campaign injected no flips")
	}
	if st.ReadRetries == 0 || st.RetryRecoveries == 0 {
		t.Fatalf("no retry activity: %d retries, %d recoveries", st.ReadRetries, st.RetryRecoveries)
	}
	if hits == 0 {
		t.Fatal("every read missed")
	}
	// Recovered reads must pay for their extra array accesses.
	g := c.Global()
	if st.RetryRecoveries > 0 && g.AvgHitLatency(0) == 0 {
		t.Fatal("retries charged no latency")
	}
	checkInvariants(t, c)
	if err := c.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestUncorrectableReadRetiresBlock exercises the retire path through
// the public API: a fixed-strength (non-programmable) controller has
// no reconfiguration escape, so a page whose flips exceed even the
// retry ladder is invalidated and its block retired.
func TestUncorrectableReadRetiresBlock(t *testing.T) {
	c := faultyCache(t,
		fault.Plan{Seed: 5, ReadFlipRate: 1, ReadFlipMax: 64},
		func(cfg *Config) { cfg.Programmable = false })
	for lba := int64(0); lba < 100; lba++ {
		c.Insert(lba)
	}
	for round := 0; round < 50 && c.Stats().RetiredBlocks == 0; round++ {
		for lba := int64(0); lba < 100; lba++ {
			c.Read(lba)
		}
	}
	st := c.Stats()
	if st.Uncorrectable == 0 {
		t.Fatal("no uncorrectable reads under 64-bit flip storms")
	}
	if st.RetiredBlocks == 0 {
		t.Fatal("uncorrectable reads retired no block")
	}
	if st.UncorrectableInjected == 0 {
		t.Fatal("injected losses not attributed (organic wear is near zero here)")
	}
	checkInvariants(t, c)
	if err := c.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestProgramFailureRemapsData(t *testing.T) {
	// Transient program failures only: every failure burns a slot and
	// the data must land on the next free page, still readable.
	c := faultyCache(t, fault.Plan{Seed: 7, ProgramFailRate: 0.2}, nil)
	for lba := int64(0); lba < 500; lba++ {
		c.Insert(lba)
	}
	st := c.Stats()
	if st.ProgramFailures == 0 || st.Remaps == 0 {
		t.Fatalf("no program failures seen: %+v", st)
	}
	misses := 0
	for lba := int64(0); lba < 500; lba++ {
		if _, ok := c.DescriptorFor(lba); ok {
			if !c.Read(lba).Hit && c.Stats().Uncorrectable == 0 {
				misses++
			}
		}
	}
	if misses > 0 {
		t.Fatalf("%d remapped pages lost", misses)
	}
	checkInvariants(t, c)
	if err := c.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestGrownBadBlocksRetireUnderPressure(t *testing.T) {
	c := faultyCache(t, fault.Plan{Seed: 11, ProgramFailRate: 0.05, GrownBadRate: 1}, nil)
	rng := sim.NewRNG(13)
	for i := 0; i < 30000 && !c.Dead(); i++ {
		lba := int64(rng.Intn(2000))
		if rng.Bool(0.3) {
			c.Write(lba)
		} else if !c.Read(lba).Hit {
			c.Insert(lba)
		}
	}
	st := c.Stats()
	if c.FaultStats().GrownBad == 0 {
		t.Fatal("campaign grew no bad blocks")
	}
	if st.RetiredBlocks == 0 {
		t.Fatal("grown-bad blocks never retired")
	}
	checkInvariants(t, c)
	if err := c.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestEraseFailureRetiresBlock(t *testing.T) {
	c := faultyCache(t, fault.Plan{Seed: 17, EraseFailRate: 0.3}, nil)
	rng := sim.NewRNG(19)
	for i := 0; i < 40000 && !c.Dead(); i++ {
		lba := int64(rng.Intn(1500))
		if rng.Bool(0.5) {
			c.Write(lba)
		} else if !c.Read(lba).Hit {
			c.Insert(lba)
		}
	}
	st := c.Stats()
	if st.EraseFailures == 0 {
		t.Fatal("no erase ever failed at rate 0.3")
	}
	if st.RetiredBlocks == 0 {
		t.Fatal("failed erases retired no block")
	}
	checkInvariants(t, c)
	if err := c.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestScrubberMigratesWornPages(t *testing.T) {
	// Organic wear only (no injector): the scrubber must rewrite pages
	// whose drifting bit-error count reaches the correction limit
	// before a foreground read trips over them.
	c := smallCache(t, func(cfg *Config) {
		cfg.WearAcceleration = 2000
		cfg.ScrubEvery = 64
	})
	rng := sim.NewRNG(23)
	for i := 0; i < 60000 && !c.Dead(); i++ {
		lba := int64(rng.Intn(1500))
		if rng.Bool(0.4) {
			c.Write(lba)
		} else if !c.Read(lba).Hit {
			c.Insert(lba)
		}
	}
	st := c.Stats()
	if st.ScrubScans == 0 {
		t.Fatal("scrubber never ran")
	}
	if st.ScrubMigrations == 0 {
		t.Fatal("scrubber migrated nothing under 2000x wear")
	}
	if st.ScrubTime == 0 {
		t.Fatal("scrub migrations charged no background time")
	}
	checkInvariants(t, c)
	if err := c.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// With a clock attached, the scrubber still runs on the op-count
// trigger and charges its migrations as background device work.
func TestScrubberRunsWithClockAttached(t *testing.T) {
	c := smallCache(t, func(cfg *Config) {
		cfg.WearAcceleration = 2000
		cfg.ScrubEvery = 200
	})
	var clk sim.Clock
	c.AttachClock(&clk)
	rng := sim.NewRNG(29)
	for i := 0; i < 60000 && !c.Dead(); i++ {
		clk.Advance(50 * sim.Microsecond)
		lba := int64(rng.Intn(1500))
		if rng.Bool(0.4) {
			c.Write(lba)
		} else if !c.Read(lba).Hit {
			c.Insert(lba)
		}
	}
	st := c.Stats()
	if st.ScrubScans == 0 {
		t.Fatal("scrubber never fired with a clock attached")
	}
	if st.ScrubMigrations == 0 {
		t.Fatal("scrubber migrated nothing with a clock attached")
	}
	if err := c.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestFactoryBadBlocksExcludedFromRegions(t *testing.T) {
	c := faultyCache(t, fault.Plan{FactoryBadBlocks: []int{0, 5}}, nil)
	st := c.Stats()
	if st.RetiredBlocks != 2 {
		t.Fatalf("retired %d blocks, want the 2 factory-bad ones", st.RetiredBlocks)
	}
	for lba := int64(0); lba < 500; lba++ {
		c.Insert(lba)
	}
	for lba := int64(0); lba < 500; lba++ {
		if d, ok := c.DescriptorFor(lba); ok && (d.Addr.Block() == 0 || d.Addr.Block() == 5) {
			t.Fatalf("lba %d allocated in factory-bad block %d", lba, d.Addr.Block())
		}
	}
	if err := c.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestCampaignDeterminism is the reproducibility contract: the same
// plan over the same operation sequence produces bit-identical cache
// statistics and fault counters.
func TestCampaignDeterminism(t *testing.T) {
	run := func() (Stats, fault.Stats, int64) {
		c := faultyCache(t, fault.Plan{
			Seed:            31,
			ReadFlipRate:    2e-3,
			ProgramFailRate: 1e-3,
			EraseFailRate:   1e-3,
			GrownBadRate:    0.25,
		}, func(cfg *Config) { cfg.ScrubEvery = 256 })
		rng := sim.NewRNG(37)
		for i := 0; i < 50000 && !c.Dead(); i++ {
			lba := int64(rng.Intn(2000))
			if rng.Bool(0.3) {
				c.Write(lba)
			} else if !c.Read(lba).Hit {
				c.Insert(lba)
			}
		}
		if err := c.CheckIntegrity(); err != nil {
			t.Fatal(err)
		}
		return c.Stats(), c.FaultStats(), c.ValidPages()
	}
	s1, f1, v1 := run()
	s2, f2, v2 := run()
	if s1 != s2 {
		t.Fatalf("cache stats diverged:\n%+v\n%+v", s1, s2)
	}
	if f1 != f2 {
		t.Fatalf("fault stats diverged:\n%+v\n%+v", f1, f2)
	}
	if v1 != v2 {
		t.Fatalf("valid pages diverged: %d vs %d", v1, v2)
	}
	if f1 == (fault.Stats{}) {
		t.Fatal("campaign injected nothing")
	}
}

// TestFaultFreeBehaviourUnchanged pins the zero-cost property: a nil
// fault plan leaves every robustness counter at zero — the retry
// ladder, remap path and scrubber are all dormant.
func TestFaultFreeBehaviourUnchanged(t *testing.T) {
	c := smallCache(t, nil)
	rng := sim.NewRNG(41)
	for i := 0; i < 20000; i++ {
		lba := int64(rng.Intn(2000))
		if rng.Bool(0.3) {
			c.Write(lba)
		} else if !c.Read(lba).Hit {
			c.Insert(lba)
		}
	}
	st := c.Stats()
	if st.TransientFlips != 0 || st.ReadRetries != 0 || st.ProgramFailures != 0 ||
		st.EraseFailures != 0 || st.Remaps != 0 || st.ScrubScans != 0 {
		t.Fatalf("robustness machinery active without a campaign: %+v", st)
	}
	if c.FaultStats() != (fault.Stats{}) {
		t.Fatal("fault stats nonzero without a campaign")
	}
	if err := c.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

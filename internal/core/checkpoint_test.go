package core

import (
	"reflect"
	"strings"
	"testing"

	"flashdc/internal/fault"
	"flashdc/internal/sim"
	"flashdc/internal/trace"
	"flashdc/internal/wear"
	"flashdc/internal/workload"
)

// checkpointTestConfig is a configuration that exercises every piece of
// state a checkpoint must carry: scrub cadence (the op-count tick), fault
// injection (RNG stream position), retention + disturb (dwell stamps,
// read counters), and the programmable controller (FGST, staged
// strengths).
func checkpointTestConfig() Config {
	cfg := DefaultConfig(8 << 20)
	cfg.Seed = 42
	cfg.WearAcceleration = 500
	cfg.ScrubEvery = 256
	cfg.Retention = wear.RetentionParams{Accel: 1e8}
	cfg.Disturb = wear.DisturbParams{ReadsPerBit: 100}
	cfg.RefreshThreshold = 0.75
	cfg.Faults = &fault.Plan{
		Seed:            13,
		ReadFlipRate:    0.01,
		ReadFlipMax:     3,
		ProgramFailRate: 0.001,
		GrownBadRate:    0.2,
	}
	return cfg
}

// driveCache replays ops workload requests against a cache, advancing
// its clock a fixed step per page, exactly like an unbroken run would.
func driveCache(t *testing.T, c *Cache, clk *sim.Clock, g workload.Generator, ops int) {
	t.Helper()
	for i := 0; i < ops && !c.Dead(); i++ {
		r := g.Next()
		r.Expand(func(lba int64) {
			clk.Advance(100 * sim.Microsecond)
			if r.Op == trace.OpWrite {
				c.Write(lba)
				return
			}
			if !c.Read(lba).Hit {
				c.Insert(lba)
			}
		})
	}
}

// TestCacheCheckpointRoundTrip is the core bit-identity guarantee: a
// cache restored from a checkpoint and driven through the same
// continuation as the original produces identical statistics, global
// state and integrity.
func TestCacheCheckpointRoundTrip(t *testing.T) {
	cfg := checkpointTestConfig()

	// Original: run 2N ops unbroken.
	full := New(cfg)
	var clkFull sim.Clock
	full.AttachClock(&clkFull)
	gFull := workload.MustNew("WebSearch1", 1.0/64, 3)
	driveCache(t, full, &clkFull, gFull, 8000)

	// Segmented: run N ops, checkpoint, restore into a fresh cache,
	// run the remaining N.
	seg := New(cfg)
	var clkSeg sim.Clock
	seg.AttachClock(&clkSeg)
	gSeg := workload.MustNew("WebSearch1", 1.0/64, 3)
	driveCache(t, seg, &clkSeg, gSeg, 4000)
	ck, err := seg.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	resumed := New(cfg)
	var clkRes sim.Clock
	resumed.AttachClock(&clkRes)
	clkRes.AdvanceTo(clkSeg.Now())
	if err := resumed.Restore(ck); err != nil {
		t.Fatal(err)
	}
	// The restored cache must already agree with its source.
	if !reflect.DeepEqual(resumed.Stats(), seg.Stats()) {
		t.Fatalf("restored stats diverge immediately:\n got %+v\nwant %+v", resumed.Stats(), seg.Stats())
	}
	if !reflect.DeepEqual(resumed.Global(), seg.Global()) {
		t.Fatalf("restored FGST diverges immediately")
	}
	if err := resumed.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}

	// The continuation sees the same generator stream the unbroken run
	// saw: fast-forward a fresh generator over the consumed prefix.
	driveCache(t, resumed, &clkRes, gSeg, 4000)

	if !reflect.DeepEqual(resumed.Stats(), full.Stats()) {
		t.Fatalf("continuation stats diverge:\n got %+v\nwant %+v", resumed.Stats(), full.Stats())
	}
	if !reflect.DeepEqual(resumed.Global(), full.Global()) {
		t.Fatalf("continuation FGST diverges:\n got %+v\nwant %+v", resumed.Global(), full.Global())
	}
	if !reflect.DeepEqual(resumed.DeviceStats(), full.DeviceStats()) {
		t.Fatalf("continuation device stats diverge:\n got %+v\nwant %+v", resumed.DeviceStats(), full.DeviceStats())
	}
	if !reflect.DeepEqual(resumed.FaultStats(), full.FaultStats()) {
		t.Fatalf("continuation fault stats diverge (RNG stream not restored?):\n got %+v\nwant %+v",
			resumed.FaultStats(), full.FaultStats())
	}
	if resumed.ValidPages() != full.ValidPages() || resumed.Dead() != full.Dead() {
		t.Fatal("continuation occupancy diverges")
	}
	if clkRes.Now() != clkFull.Now() {
		t.Fatalf("clocks diverge: %v vs %v", clkRes.Now(), clkFull.Now())
	}
	if err := resumed.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestCacheRestoreRejectsMismatchedConfig: restoring into a cache built
// from a different configuration must fail loudly, not corrupt state.
func TestCacheRestoreRejectsMismatchedConfig(t *testing.T) {
	cfg := checkpointTestConfig()
	c := New(cfg)
	var clk sim.Clock
	c.AttachClock(&clk)
	g := workload.MustNew("WebSearch1", 1.0/64, 3)
	driveCache(t, c, &clk, g, 2000)
	ck, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	// Different capacity: geometry check fires.
	small := DefaultConfig(4 << 20)
	small.Seed = cfg.Seed
	if err := New(small).Restore(ck); err == nil {
		t.Fatal("restore into a half-size cache succeeded")
	}

	// Same geometry, different injector presence: refused.
	noFaults := cfg
	noFaults.Faults = nil
	if err := New(noFaults).Restore(ck); err == nil {
		t.Fatal("restore into a fault-free cache accepted an injector state")
	}
}

// withRegions returns a copy of ck whose region lists edit has
// changed; ck itself is left alone.
func withRegions(ck *CacheCheckpoint, edit func([]CheckpointRegion)) *CacheCheckpoint {
	out := *ck
	out.Regions = make([]CheckpointRegion, len(ck.Regions))
	for i, cr := range ck.Regions {
		cr.Free = append([]int(nil), cr.Free...)
		cr.LRU = append([]int(nil), cr.LRU...)
		out.Regions[i] = cr
	}
	edit(out.Regions)
	return &out
}

// TestRestoreRejectsDuplicateBlocks: a block named twice across the
// region lists is refused before restore links anything — the LRU
// list threaded through the block metadata would otherwise loop.
func TestRestoreRejectsDuplicateBlocks(t *testing.T) {
	cfg := DefaultConfig(8 * testMB)
	cfg.Seed = 42
	c := New(cfg)
	driveMixed(c, 5, 20000, 3000, 0.3)
	ck, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Regions[0].LRU) < 2 || ck.Regions[0].Open < 0 {
		t.Fatalf("setup: read region has %d LRU blocks and open block %d", len(ck.Regions[0].LRU), ck.Regions[0].Open)
	}
	if err := New(cfg).Restore(withRegions(ck, func([]CheckpointRegion) {})); err != nil {
		t.Fatalf("unedited copy refused: %v", err)
	}
	cases := map[string]func(rs []CheckpointRegion){
		"twice in one LRU": func(rs []CheckpointRegion) {
			rs[0].LRU = append(rs[0].LRU, rs[0].LRU[0])
		},
		"region 0 LRU and region 1 free list": func(rs []CheckpointRegion) {
			rs[1].Free = append(rs[1].Free, rs[0].LRU[0])
		},
		"both LRU and open": func(rs []CheckpointRegion) {
			rs[0].LRU = append(rs[0].LRU, rs[0].Open)
		},
	}
	for name, edit := range cases {
		err := New(cfg).Restore(withRegions(ck, edit))
		if err == nil || !strings.Contains(err.Error(), "more than once") {
			t.Fatalf("%s: restore returned %v, want a duplicate-block error", name, err)
		}
	}
}

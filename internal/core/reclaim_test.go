package core

import (
	"testing"

	"flashdc/internal/sim"
)

// TestSteadyStateChurnAllocatesNothing drives the mixed read/write
// stream of the root package's BenchmarkCacheMixed (30% writes over a
// working set twice the Flash capacity) past its fill phase, then
// asserts that further churn — fills, evictions, background GC and, at
// a low wear threshold, wear rotations — allocates nothing: reclaim
// lists pages into cache-owned scratch buffers.
func TestSteadyStateChurnAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name          string
		wearThreshold float64
		rotates       bool
	}{
		{"default", DefaultConfig(0).WearThreshold, false},
		{"wear-rotating", 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(16 << 20)
			cfg.WearThreshold = tc.wearThreshold
			c := New(cfg)
			rng := sim.NewRNG(1)
			wss := 2 * int(c.CapacityPages())
			churn := func(ops int) {
				for i := 0; i < ops; i++ {
					lba := int64(rng.Intn(wss))
					if rng.Bool(0.3) {
						c.Write(lba)
					} else if !c.Read(lba).Hit {
						c.Insert(lba)
					}
				}
			}
			churn(300000)
			swaps := c.Stats().WearSwaps
			if allocs := testing.AllocsPerRun(1, func() { churn(50000) }); allocs != 0 {
				t.Fatalf("steady-state churn made %v allocations per 50k ops", allocs)
			}
			if tc.rotates && c.Stats().WearSwaps == swaps {
				t.Fatal("setup: no wear rotation during the measured churn")
			}
			if c.Dead() {
				t.Fatal("setup: the cache died during the churn")
			}
		})
	}
}

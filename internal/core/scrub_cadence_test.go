package core

import (
	"testing"

	"flashdc/internal/sim"
)

// The scrub cadence test pins the patrol schedule. Every increment on
// a live cache scans exactly scrubBatch pages, so Stats().ScrubScans
// over scrubBatch counts increments.

// scrubSteps drives n host operations (each a maybeScrub opportunity:
// a read hit, or an insert after a miss) and returns how many scrub
// increments ran during them.
func scrubSteps(t *testing.T, c *Cache, n int) int64 {
	t.Helper()
	before := c.Stats().ScrubScans
	for i := 0; i < n; i++ {
		lba := int64(i % 64)
		if !c.Read(lba).Hit {
			c.Insert(lba)
		}
	}
	scans := c.Stats().ScrubScans - before
	if scans%scrubBatch != 0 {
		t.Fatalf("%d pages scanned, not a whole number of %d-page increments", scans, scrubBatch)
	}
	return scans / scrubBatch
}

// The operation-count trigger is the only cadence: one increment every
// ScrubEvery ops, unchanged by attaching a clock (even twice) or by a
// warmup-style reset that rewinds the clock.
func TestScrubCadenceOpCount(t *testing.T) {
	c := smallCache(t, func(cfg *Config) {
		cfg.ScrubEvery = 100
	})
	if got := scrubSteps(t, c, 1000); got != 10 {
		t.Fatalf("1000 ops at ScrubEvery=100 ran %d increments, want 10", got)
	}

	var clk sim.Clock
	c.AttachClock(&clk)
	if got := scrubSteps(t, c, 1000); got != 10 {
		t.Fatalf("with a clock attached, 1000 ops ran %d increments, want 10", got)
	}
	c.AttachClock(&clk)
	clk.Advance(50 * sim.Millisecond)
	if got := scrubSteps(t, c, 1000); got != 10 {
		t.Fatalf("after a second AttachClock, 1000 ops ran %d increments, want 10", got)
	}

	clk = sim.Clock{}
	c.ResetDeviceStats()
	if got := scrubSteps(t, c, 1000); got != 10 {
		t.Fatalf("after ResetDeviceStats, 1000 ops ran %d increments, want 10", got)
	}
}

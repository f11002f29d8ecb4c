package hier

import (
	"fmt"

	"flashdc/internal/core"
	"flashdc/internal/disk"
	"flashdc/internal/dram"
	"flashdc/internal/sim"
)

// SystemCheckpoint is the complete state of one hierarchy (one shard):
// the simulated clock, every tier's contents and counters, and the
// latency distribution. An attached observer's internal state (tracer
// ring, snapshot cadence) is deliberately out of scope — observability
// is a read-only side channel, and a resumed run re-observes from the
// resume point.
type SystemCheckpoint struct {
	Now       sim.Time
	Stats     Stats
	Latencies sim.HistogramState
	// LastRead and Streak carry the sequential-readahead detector.
	LastRead int64
	Streak   int

	PDC      []dram.PageState
	PDCStats dram.Stats
	Disk     disk.Stats

	// Flash is nil for the DRAM-only baseline.
	Flash *core.CacheCheckpoint
}

// Checkpoint captures the hierarchy's complete state. It fails only
// where the Flash cache's Checkpoint does: under an active scheduler.
func (s *System) Checkpoint() (*SystemCheckpoint, error) {
	ck := &SystemCheckpoint{
		Now:       s.clock.Now(),
		Stats:     s.stats,
		Latencies: s.latencies.State(),
		LastRead:  s.lastRead,
		Streak:    s.streak,
		PDC:       s.pdc.Checkpoint(),
		PDCStats:  s.pdc.Stats(),
		Disk:      s.disk.Stats(),
	}
	if s.flash != nil {
		fck, err := s.flash.Checkpoint()
		if err != nil {
			return nil, err
		}
		ck.Flash = fck
	}
	return ck, nil
}

// Restore overwrites a freshly assembled hierarchy (same Config) with
// a checkpoint. The clock advances first so every component sees
// resumed time during its restore.
func (s *System) Restore(ck *SystemCheckpoint) error {
	if (ck.Flash != nil) != (s.flash != nil) {
		return fmt.Errorf("hier: checkpoint flash presence %v, config says %v",
			ck.Flash != nil, s.flash != nil)
	}
	s.clock.AdvanceTo(ck.Now)
	if err := s.pdc.Restore(ck.PDC, ck.PDCStats); err != nil {
		return err
	}
	s.disk.Restore(ck.Disk)
	if s.flash != nil {
		if err := s.flash.Restore(ck.Flash); err != nil {
			return err
		}
	}
	s.stats = ck.Stats
	if err := s.latencies.SetState(ck.Latencies); err != nil {
		return err
	}
	s.lastRead = ck.LastRead
	s.streak = ck.Streak
	return nil
}

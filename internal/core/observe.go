package core

import (
	"strconv"

	"flashdc/internal/obs"
	"flashdc/internal/sim"
)

// AttachObserver wires the cache (and the device and fault injector
// below it) into an observability sink. Metrics come from a collector
// that samples the existing Stats counters at snapshot time — the hot
// paths pay nothing for them — while the management decision points
// (GC, wear rotation, reconfiguration, retirement, retries, scrubbing)
// emit trace events, each guarded by a nil check.
//
// Attach at most one observer, before driving traffic; the observer
// must be shard-local (see package obs).
func (c *Cache) AttachObserver(o *obs.Observer) {
	if !o.Enabled() {
		return
	}
	c.obs = o
	if c.clock != nil {
		o.SetClock(c.clock)
	}
	o.RegisterCollector(func(s *obs.Sample) {
		st := c.stats
		s.Counter("cache_reads_total", st.Reads)
		s.Counter("cache_writes_total", st.Writes)
		s.Counter("cache_hits_total", st.Hits)
		s.Counter("cache_misses_total", st.Misses)
		s.Counter("cache_fills_total", st.Fills)
		s.Counter("cache_gc_runs_total", st.GCRuns)
		s.Counter("cache_gc_relocations_total", st.GCRelocations)
		s.Counter("cache_gc_time_ns_total", int64(st.GCTime))
		s.Counter("cache_evictions_total", st.Evictions)
		s.Counter("cache_flushed_pages_total", st.FlushedPages)
		s.Counter("cache_wear_swaps_total", st.WearSwaps)
		s.Counter("cache_promotions_total", st.Promotions)
		s.Counter("cache_uncorrectable_total", st.Uncorrectable)
		s.Counter("cache_retired_blocks_total", st.RetiredBlocks)
		s.Counter("cache_read_retries_total", st.ReadRetries)
		s.Counter("cache_retry_recoveries_total", st.RetryRecoveries)
		s.Counter("cache_program_failures_total", st.ProgramFailures)
		s.Counter("cache_erase_failures_total", st.EraseFailures)
		s.Counter("cache_remaps_total", st.Remaps)
		s.Counter("cache_scrub_scans_total", st.ScrubScans)
		s.Counter("cache_scrub_migrations_total", st.ScrubMigrations)
		s.Counter("cache_retention_scans_total", st.RetentionScans)
		s.Counter("cache_refresh_rewrites_total", st.RefreshRewrites)
		s.Counter("cache_disturb_resets_total", st.DisturbResets)
		s.Counter("cache_admit_rejects_total", st.AdmitRejects)
		s.Counter("cache_write_arounds_total", st.WriteArounds)
		s.Counter("cache_ecc_reconfigs_total", c.fgst.ECCReconfigs)
		s.Counter("cache_density_reconfigs_total", c.fgst.DensityReconfigs)
		s.Gauge("cache_valid_pages", float64(c.totalValid))
		s.Gauge("cache_capacity_pages", float64(c.CapacityPages()))
		s.Gauge("cache_marginal_freq", clampNonNeg(c.marginalFreq))
		if c.dead {
			s.Gauge("cache_dead", 1)
		} else {
			s.Gauge("cache_dead", 0)
		}
		if c.cfg.Feedback() {
			// Feedback counters appear only when a feedback path is
			// configured, keeping feedback-off metrics output
			// byte-identical to the pre-feedback simulator.
			s.Counter("cache_gc_deferred_total", st.GCDeferred)
			s.Counter("cache_admit_throttle_flips_total", st.AdmitThrottleFlips)
			s.Counter("cache_scrub_deferred_total", st.ScrubDeferred)
			s.Counter("cache_scrub_windows_total", st.ScrubWindows)
			s.Gauge("sched_wbuf_fill", c.sched.BufferFill())
		}
		if c.sched.Active() {
			// Scheduler counters appear only under non-default
			// geometry, keeping default-run metrics output
			// byte-identical to the pre-scheduler simulator.
			ss := c.sched.Stats()
			s.Counter("sched_read_cmds_total", ss.ReadCmds)
			s.Counter("sched_program_cmds_total", ss.ProgramCmds)
			s.Counter("sched_erase_cmds_total", ss.EraseCmds)
			s.Counter("sched_chan_waits_total", ss.ChanWaits)
			s.Counter("sched_chan_wait_ns_total", int64(ss.ChanWaitTime))
			s.Counter("sched_bank_conflicts_total", ss.BankConflicts)
			s.Counter("sched_bank_wait_ns_total", int64(ss.BankWaitTime))
			s.Counter("sched_buffered_writes_total", ss.BufferedWrites)
			s.Counter("sched_coalesced_writes_total", ss.CoalescedWrites)
			s.Counter("sched_flushes_total", ss.Flushes)
			s.Counter("sched_forced_flushes_total", ss.ForcedFlushes)
		}
		c.dev.Collect(s)
		c.dev.FaultInjector().Collect(s)
	})
	c.sched.SetHooks(
		func(block int, wait sim.Duration) {
			c.obs.Event(obs.Event{Kind: obs.KindChanBusy, Block: block, Dur: int64(wait)})
		},
		func(block int, wait sim.Duration) {
			c.obs.Event(obs.Event{Kind: obs.KindBankConflict, Block: block, Dur: int64(wait)})
		},
		func(lba int64, block int) {
			c.obs.Event(obs.Event{Kind: obs.KindWBCoalesce, Block: block, LBA: lba})
		},
	)
}

func clampNonNeg(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// Observer returns the attached observer (nil when none).
func (c *Cache) Observer() *obs.Observer { return c.obs }

// The event emitters below keep the decision paths free of obs
// plumbing: each is a single nil-guarded call at the decision site.

func (c *Cache) eventGCStart(block, invalid int) {
	if c.obs != nil {
		c.obs.Event(obs.Event{Kind: obs.KindGCStart, Block: block, N: int64(invalid)})
	}
}

func (c *Cache) eventGCEnd(block, relocated int, dur int64) {
	if c.obs != nil {
		c.obs.Event(obs.Event{Kind: obs.KindGCEnd, Block: block, N: int64(relocated), Dur: dur})
	}
}

func (c *Cache) eventWearRotate(into, from, pages int) {
	if c.obs != nil {
		c.obs.Event(obs.Event{Kind: obs.KindWearRotate, Block: into,
			From: strconv.Itoa(from), N: int64(pages)})
	}
}

func (c *Cache) eventECCBump(block int, from, to, observed int) {
	if c.obs != nil {
		c.obs.Event(obs.Event{Kind: obs.KindECCBump, Block: block,
			From: strconv.Itoa(from), To: strconv.Itoa(to), N: int64(observed)})
	}
}

func (c *Cache) eventDensityDown(block, observed int) {
	if c.obs != nil {
		c.obs.Event(obs.Event{Kind: obs.KindDensityDown, Block: block,
			From: "mlc", To: "slc", N: int64(observed)})
	}
}

func (c *Cache) eventPromote(block int, lba int64) {
	if c.obs != nil {
		c.obs.Event(obs.Event{Kind: obs.KindPromote, Block: block, LBA: lba})
	}
}

func (c *Cache) eventRetire(block, valid int) {
	if c.obs != nil {
		c.obs.Event(obs.Event{Kind: obs.KindRetire, Block: block, N: int64(valid)})
	}
}

func (c *Cache) eventReadRetry(block int, lba int64, attempts, strength int, recovered bool) {
	if c.obs != nil {
		outcome := "lost"
		if recovered {
			outcome = "recovered"
		}
		c.obs.Event(obs.Event{Kind: obs.KindReadRetry, Block: block, LBA: lba,
			From: strconv.Itoa(strength), To: outcome, N: int64(attempts)})
	}
}

func (c *Cache) eventScrubMigrate(block int, lba int64) {
	if c.obs != nil {
		c.obs.Event(obs.Event{Kind: obs.KindScrubMigrate, Block: block, LBA: lba})
	}
}

func (c *Cache) eventRetentionScan(pages int) {
	if c.obs != nil {
		c.obs.Event(obs.Event{Kind: obs.KindRetentionScan, Block: -1, N: int64(pages)})
	}
}

func (c *Cache) eventRefreshRewrite(block int, lba int64) {
	if c.obs != nil {
		c.obs.Event(obs.Event{Kind: obs.KindRefreshRewrite, Block: block, LBA: lba})
	}
}

func (c *Cache) eventDisturbReset(block int, reads int64) {
	if c.obs != nil {
		c.obs.Event(obs.Event{Kind: obs.KindDisturbReset, Block: block, N: reads})
	}
}

func (c *Cache) eventAdmitReject(lba int64) {
	if c.obs != nil {
		c.obs.Event(obs.Event{Kind: obs.KindAdmitReject, Block: -1, LBA: lba})
	}
}

func (c *Cache) eventWriteAround(lba int64) {
	if c.obs != nil {
		c.obs.Event(obs.Event{Kind: obs.KindWriteAround, Block: -1, LBA: lba})
	}
}

func (c *Cache) eventGCDeferred(backlog sim.Duration) {
	if c.obs != nil {
		c.obs.Event(obs.Event{Kind: obs.KindGCDeferred, Block: -1, Dur: int64(backlog)})
	}
}

func (c *Cache) eventAdmitThrottle(on bool, fill float64) {
	if c.obs != nil {
		state := "off"
		if on {
			state = "on"
		}
		c.obs.Event(obs.Event{Kind: obs.KindAdmitThrottle, Block: -1,
			To: state, N: int64(fill * 100)})
	}
}

func (c *Cache) eventScrubWindow(landed int) {
	if c.obs != nil {
		c.obs.Event(obs.Event{Kind: obs.KindScrubWindow, Block: -1, N: int64(landed)})
	}
}

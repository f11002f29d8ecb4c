package core

import (
	"flashdc/internal/nand"
	"flashdc/internal/sim"
	"flashdc/internal/wear"
)

// Background scrubber: cold pages accumulate wear (and, under fault
// campaigns, risk) without ever being read, so the read-time
// reconfiguration heuristic never sees them — until they are
// unreadable. The scrubber patrols the page population in the
// background and rewrites valid pages whose bit-error count has
// reached their correction capability, moving the data to healthy
// space before the next wear step silently destroys it.
//
// One trigger drives it: every ScrubEvery host operations, maybeScrub
// runs one increment. The spent time is charged as background work,
// the same accounting GC uses, including device occupancy when a
// clock is attached.

// scrubBatch is the number of pages one scrub increment examines, and
// the bound of the deferred-scrub queue.
const scrubBatch = 128

// maybeScrub runs one scrub increment every ScrubEvery host
// operations.
func (c *Cache) maybeScrub() {
	if c.cfg.ScrubEvery <= 0 || c.dead {
		return
	}
	c.scrubTick++
	if c.scrubTick%uint64(c.cfg.ScrubEvery) == 0 {
		c.scrubStep()
	}
}

// scrubStep examines up to scrubBatch pages from the scan cursor and
// migrates the at-risk ones. The spent time is background (like GC):
// it occupies the device but never a foreground request directly.
//
// With retention or read disturb enabled this is a predictive refresh
// pass: the decision for each valid page splits on what the predicted
// errors are made of (scrubVerdict). Wear at or beyond capability
// takes scrubPage's remap path (relocate and stage a stronger
// configuration, because the cells themselves have degraded); healthy
// cells whose total predicted count (wear + retention dwell +
// accumulated disturb) has climbed to RefreshThreshold of capability
// take its rewrite path (relocate only, since fresh programming
// restarts the dwell and the source block's eventual erase clears its
// disturb counter). Both processes are deterministic functions of
// simulated state, so the prediction equals what the next read would
// see.
func (c *Cache) scrubStep() sim.Duration {
	if c.dead {
		return 0
	}
	predictive := c.cfg.Retention.Enabled() || c.cfg.Disturb.Enabled()
	var t sim.Duration
	t += c.scrubDrainDeferred(predictive)
	scanned := 0
	for i := 0; i < scrubBatch; i++ {
		a, ok := c.nextScrubAddr()
		if !ok {
			break // no scannable blocks at all
		}
		scanned++
		c.stats.ScrubScans++
		if move, atRisk := c.scrubVerdict(a, predictive); move && !c.deferScrub(a) {
			t += c.scrubPage(a, atRisk)
		}
		if c.dead {
			break
		}
	}
	c.stats.ScrubTime += t
	if predictive && scanned > 0 {
		c.stats.RetentionScans++
		c.eventRetentionScan(scanned)
	}
	return t
}

// scrubFeedbackOn reports whether the idle-window scrub feedback is in
// effect: opted in, with a clock to read occupancy against and a sched
// geometry whose bank timelines make BankWait meaningful.
func (c *Cache) scrubFeedbackOn() bool {
	return c.cfg.ScrubFeedback && c.clock != nil && c.sched.Active()
}

// deferScrub pushes an at-risk page onto the idle-window queue when
// scrub feedback is on and the page's bank is predicted busy past
// scrubDeferWait, so its migration does not queue behind in-flight
// foreground commands. Reports whether the page was deferred; with
// feedback off, an idle bank, or a full queue (bounded at scrubBatch
// entries so the backlog cannot grow without limit) the caller
// migrates immediately as the baseline scrubber would.
func (c *Cache) deferScrub(a nand.Addr) bool {
	if !c.scrubFeedbackOn() || len(c.scrubDeferred) >= scrubBatch {
		return false
	}
	if c.sched.BankWait(a.Block(), c.clock.Now()) <= scrubDeferWait {
		return false
	}
	c.scrubDeferred = append(c.scrubDeferred, a)
	c.stats.ScrubDeferred++
	return true
}

// scrubDrainDeferred retries the deferred at-risk pages whose banks
// have gone idle, before the patrol cursor advances. Each entry is
// re-validated against current state — the page may have been
// invalidated, relocated, or its block retired since the deferral, and
// the wear/retention picture may have changed which migration path (or
// none) applies. Entries whose banks are still busy keep their place
// in the queue. A batch that lands at least one migration counts as
// one idle window (ScrubWindows, scrub_window event).
func (c *Cache) scrubDrainDeferred(predictive bool) sim.Duration {
	if len(c.scrubDeferred) == 0 {
		return 0
	}
	if !c.scrubFeedbackOn() {
		c.scrubDeferred = c.scrubDeferred[:0]
		return 0
	}
	var t sim.Duration
	landed := 0
	kept := c.scrubDeferred[:0]
	for _, a := range c.scrubDeferred {
		if c.dead {
			break
		}
		if c.meta[a.Block()].state == blockRetired {
			continue
		}
		move, atRisk := c.scrubVerdict(a, predictive)
		if !move {
			continue
		}
		if c.sched.BankWait(a.Block(), c.clock.Now()) > scrubDeferWait {
			kept = append(kept, a)
			continue
		}
		t += c.scrubPage(a, atRisk)
		landed++
	}
	c.scrubDeferred = kept
	if landed > 0 {
		c.stats.ScrubWindows++
		c.eventScrubWindow(landed)
	}
	return t
}

// nextScrubAddr advances the patrol cursor one page, skipping retired
// blocks and (in MLC slots) visiting both sub-pages. ok is false when
// no scannable block exists.
func (c *Cache) nextScrubAddr() (a nand.Addr, ok bool) {
	for tries := 0; tries < 2*len(c.meta)*nand.SlotsPerBlock; tries++ {
		if c.scrubBlock >= len(c.meta) {
			c.scrubBlock = 0
		}
		b := c.scrubBlock
		if c.meta[b].state == blockRetired {
			c.scrubBlock++
			c.scrubSlot, c.scrubSub = 0, 0
			continue
		}
		a = nand.PageAddr(b, c.scrubSlot, c.scrubSub)
		// Advance for next call.
		subs := 1
		if c.dev.Mode(a) == wear.MLC {
			subs = 2
		}
		if c.scrubSub+1 < subs {
			c.scrubSub++
		} else {
			c.scrubSub = 0
			c.scrubSlot++
			if c.scrubSlot >= nand.SlotsPerBlock {
				c.scrubSlot = 0
				c.scrubBlock++
			}
		}
		return a, true
	}
	return 0, false
}

// scrubVerdict classifies page a for the scrubber. move is false for
// an invalid page and for one that needs nothing yet; otherwise atRisk
// picks the path: wear alone has reached the page's correction
// capability (remap), or else, on a predictive pass, the total
// predicted error count has reached RefreshThreshold of it (refresh).
func (c *Cache) scrubVerdict(a nand.Addr, predictive bool) (move, atRisk bool) {
	st := c.fpst.At(a)
	if !st.Valid {
		return false, false
	}
	if c.dev.WearBitErrors(a) >= int(st.Strength) {
		return true, true
	}
	return predictive && float64(c.dev.BitErrors(a)) >= c.cfg.RefreshThreshold*float64(st.Strength), false
}

// scrubPage relocates one page the scrubber flagged into fresh space in
// its own region and returns the background time spent. An at-risk
// page also stages a stronger configuration on its source slot, so the
// block's next erase hardens it (a scrub migration). A refresh stages
// nothing — the cells are healthy; the data had merely sat too long or
// its block absorbed too many reads. Rewriting restarts the retention
// dwell at zero, and the destination block's disturb count is whatever
// it has accumulated, normally far below the source's.
func (c *Cache) scrubPage(a nand.Addr, atRisk bool) sim.Duration {
	dst, t, ok := c.relocate(a, c.regions[c.meta[a.Block()].region], atRisk)
	if !ok {
		return t
	}
	lba := c.fpst.At(dst).LBA
	if atRisk {
		c.stats.ScrubMigrations++
		c.eventScrubMigrate(a.Block(), lba)
	} else {
		c.stats.RefreshRewrites++
		c.eventRefreshRewrite(a.Block(), lba)
	}
	return t
}

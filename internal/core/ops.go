package core

import (
	"flashdc/internal/ecc"
	"flashdc/internal/nand"
	"flashdc/internal/sched"
	"flashdc/internal/sim"
	"flashdc/internal/tables"
	"flashdc/internal/wear"
)

// ReadOutcome reports one cache lookup.
type ReadOutcome struct {
	// Hit is true when the page was served from Flash.
	Hit bool
	// Latency is the foreground service time on a hit (Flash array
	// read plus ECC decode). Zero on a miss — the caller pays the
	// disk and should then call Insert.
	Latency sim.Duration
}

// Read looks a disk page up in the Flash cache, following section 5.1.
// On a hit it performs the Flash read, charges ECC decode latency,
// updates recency and the access counter, and lets the programmable
// controller react to observed bit errors (reconfiguration, hot-page
// promotion). On a miss (including an uncorrectable page) the caller
// must fetch from disk and Insert.
func (c *Cache) Read(lba int64) ReadOutcome {
	// The admission policy observes every lookup unconditionally
	// (before the dead check): the reference model replays the same
	// sequence against its own filter, so the two must never skip
	// different calls.
	c.admitPol.noteRead(lba)
	c.seq++
	c.stats.Reads++
	if c.dead {
		c.stats.Misses++
		c.fgst.RecordMiss()
		return ReadOutcome{}
	}
	addr, ok := c.fcht.Get(lba)
	if !ok {
		c.stats.Misses++
		c.fgst.RecordMiss()
		return ReadOutcome{}
	}
	st := c.fpst.At(addr)
	res, err := c.dev.Read(addr)
	if err != nil {
		panic(err)
	}
	c.stats.TransientFlips += int64(res.Injected)
	var retryLat sim.Duration
	if res.BitErrors > int(st.Strength) {
		var recovered bool
		res, retryLat, recovered = c.retryRead(addr, st, res)
		if !recovered {
			// Uncorrectable even after the retry ladder: the page's
			// data is lost; serve from disk.
			c.stats.Uncorrectable++
			if res.BitErrors-res.Injected <= int(st.Strength) {
				c.stats.UncorrectableInjected++
			}
			c.stats.Misses++
			exhausted := !c.cfg.Programmable ||
				(st.StagedStrength >= maxControllerStrength && c.fpst.Slot(addr).StagedMode == wear.SLC)
			c.invalidate(addr)
			if exhausted {
				c.retire(addr.Block())
			} else {
				c.reconfigure(addr, res.BitErrors, c.pageFreq(st))
			}
			c.fgst.RecordMiss()
			return ReadOutcome{}
		}
	}

	lat := res.Latency + retryLat
	if res.BitErrors > 0 || c.cfg.ForcedStrength != 0 {
		lat += c.lat.DecodeLatency(st.Strength)
	} else {
		lat += c.lat.DecodeLatencyClean(st.Strength)
	}
	// With contention modelling, a read colliding with background GC
	// or traffic on its block's channel/bank waits for the device.
	lat += c.sched.Foreground(addr.Block(), sched.OpRead, res.Latency)
	c.touch(addr.Block())
	saturated := c.fpst.IncAccess(addr)
	c.stats.Hits++
	c.fgst.RecordHit(lat)

	if c.cfg.Programmable {
		if res.BitErrors >= int(st.Strength) && st.StagedStrength == st.Strength &&
			c.fpst.Slot(addr).StagedMode == c.dev.Mode(addr) {
			// At the correction limit with no fix pending yet:
			// reconfigure before the next wear step makes the page
			// unreadable (section 5.2.1). A page with a staged change
			// waits for its block's next erase.
			c.reconfigure(addr, res.BitErrors, c.pageFreq(st))
		}
		if saturated && c.dev.Mode(addr) == wear.MLC {
			c.promote(addr)
		}
	}
	c.maybeGC()
	c.maybeScrub()
	return ReadOutcome{Hit: true, Latency: lat}
}

// maxReadRetries bounds the read-retry ladder: each step models one of
// a real controller's read-retry reference-voltage sets plus
// soft-decode.
const maxReadRetries = 3

// retryRead walks the bounded read-retry ladder after a read exceeded
// its page's correction capability (section 4.1's controller, extended
// with the read-retry behaviour of real parts): each attempt re-reads
// the page — transient injected flips re-sample, so they usually clear
// — and escalates the effective decode strength one step, up to the
// hardware limit. It reports the final read, the retry latency (reads
// plus escalated decodes), and whether the data was salvaged. Without
// a fault campaign there is nothing transient to retry away, so the
// ladder is skipped and organic failures surface immediately.
func (c *Cache) retryRead(addr nand.Addr, st *tables.PageStatus, first nand.ReadResult) (nand.ReadResult, sim.Duration, bool) {
	if c.dev.FaultInjector() == nil {
		return first, 0, false
	}
	var lat sim.Duration
	res := first
	attempts := 0
	for attempt := 1; attempt <= maxReadRetries; attempt++ {
		r, err := c.dev.Read(addr)
		if err != nil {
			break
		}
		attempts = attempt
		c.stats.ReadRetries++
		c.stats.TransientFlips += int64(r.Injected)
		eff := st.Strength + ecc.Strength(attempt)
		if eff > maxControllerStrength {
			eff = maxControllerStrength
		}
		lat += r.Latency + c.lat.DecodeLatency(eff)
		if r.BitErrors <= int(eff) {
			c.stats.RetryRecoveries++
			c.eventReadRetry(addr.Block(), st.LBA, attempt, int(st.Strength), true)
			if r.BitErrors > int(st.Strength) && c.cfg.Programmable {
				// The escalated decode was load-bearing: stage a
				// stronger configuration before the page wears past
				// the ladder too (section 5.2.1 response).
				c.reconfigure(addr, r.BitErrors, c.pageFreq(st))
			}
			return r, lat, true
		}
		res = r
	}
	c.eventReadRetry(addr.Block(), st.LBA, attempts, int(st.Strength), false)
	return res, lat, false
}

// Insert fills a disk page into the read region after a miss was
// served from disk. The program happens off the critical path; the
// returned latency is background time. Inserting a page that is
// already cached refreshes recency only.
func (c *Cache) Insert(lba int64) sim.Duration {
	c.seq++
	if c.dead {
		return 0
	}
	if addr, ok := c.fcht.Get(lba); ok {
		c.touch(addr.Block())
		return 0
	}
	if !c.admitPol.admitFill(lba) {
		// The policy keeps the page out (e.g. WLFC's first touch): the
		// read was already served from disk, so rejecting costs
		// nothing now and saves the program if the page never returns.
		c.stats.AdmitRejects++
		c.eventAdmitReject(lba)
		return 0
	}
	c.stats.Fills++
	r := c.regions[readRegion]
	addr, lat := c.allocProgram(r, c.allocMode(), lba)
	lat += c.sched.Foreground(addr.Block(), sched.OpProgram, lat)
	if c.dead {
		return lat
	}
	st := c.fpst.At(addr)
	st.Access = 1
	c.fcht.Put(lba, addr)
	c.maybeGC()
	c.maybeScrub()
	return lat
}

// Write stores a dirty disk page into the write region (section 5.1):
// an existing copy anywhere in Flash is invalidated (out-of-place
// write), then a fresh page is programmed. The returned latency is the
// program time; the paper treats these as periodic background flushes
// from the primary disk cache.
func (c *Cache) Write(lba int64) sim.Duration {
	c.seq++
	c.stats.Writes++
	if c.dead {
		c.stats.FlushedPages++
		return c.cfg.Backing.WritePage(lba)
	}
	if addr, ok := c.fcht.Get(lba); ok {
		c.invalidate(addr)
	}
	if !c.admitPol.admitWriteback(lba) {
		// Write-around (WLFC's lazy write-back): the stale Flash copy
		// is already invalidated above, the dirty page goes straight
		// to disk, and the write region never pays the program or the
		// GC traffic behind it. Background maintenance still runs on
		// the host-operation cadence.
		c.stats.WriteArounds++
		c.eventWriteAround(lba)
		lat := c.cfg.Backing.WritePage(lba)
		c.maybeGC()
		c.maybeScrub()
		return lat
	}
	// The write region is the last one: the unified cache has only one.
	r := c.regions[len(c.regions)-1]
	addr, lat := c.allocProgram(r, c.allocMode(), lba)
	if !c.dead && c.sched.BufferActive() {
		// Delayed writeback: the program's device state is already
		// final (allocProgram above), but its bank occupancy defers to
		// the write buffer's coalescing window; the host pays only the
		// admission wait. A rewrite of this LBA inside the window
		// supersedes the deferred flush.
		lat = c.sched.BufferWrite(lba, addr.Block(), lat)
	} else {
		lat += c.sched.Foreground(addr.Block(), sched.OpProgram, lat)
	}
	if c.dead {
		// The cache died mid-allocation; the dirty page goes straight
		// to the backing store instead of being lost.
		c.stats.FlushedPages++
		return lat + c.cfg.Backing.WritePage(lba)
	}
	c.fcht.Put(lba, addr)
	c.maybeGC()
	c.maybeScrub()
	return lat
}

// allocMode returns the density for new data: the device's initial
// (dense) mode; hot pages move to SLC by promotion, not insertion.
func (c *Cache) allocMode() wear.Mode { return c.cfg.InitialMode }

// Flush writes every page in the write region back to the backing
// store and returns the number of pages flushed. Used at simulation
// end ("the disk is eventually updated by flushing the write disk
// cache").
func (c *Cache) Flush() int {
	// Pending deferred writebacks land on their banks now; the data
	// has been in the device since admission, so this is purely the
	// occupancy the coalescing window was still holding back.
	c.sched.Drain()
	if len(c.regions) != 2 {
		return 0
	}
	n := 0
	r := c.regions[writeRegion]
	if r.open >= 0 {
		n += c.dropValid(r.open, false)
	}
	for b := int(r.head); b != none; b = int(c.meta[b].next) {
		n += c.dropValid(b, false)
	}
	return n
}

// pageFreq estimates the relative access frequency of a page: its
// access-counter value over the accesses elapsed since insertion.
func (c *Cache) pageFreq(st *tables.PageStatus) float64 {
	age := c.seq - st.InsertedAt
	if age == 0 {
		return 1
	}
	return min(float64(st.Access)/float64(age), 1)
}

// promote migrates a read-hot MLC page to a fresh SLC page in the read
// region (section 5.2.2), seeding the new page's counter at the
// saturated value.
func (c *Cache) promote(addr nand.Addr) {
	st := c.fpst.At(addr)
	lba := st.LBA
	region := c.regions[c.meta[addr.Block()].region]
	c.invalidate(addr)
	dst, _ := c.allocProgram(region, wear.SLC, lba)
	if c.dead {
		return
	}
	d := c.fpst.At(dst)
	d.Access = c.fpst.Saturate()
	c.fcht.Put(lba, dst)
	c.stats.Promotions++
	c.eventPromote(dst.Block(), lba)
	// A promotion is a density descriptor update (section 5.2.2), so
	// it counts in the Figure 11 event breakdown.
	c.fgst.DensityReconfigs++
}

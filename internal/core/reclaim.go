package core

import (
	"errors"

	"flashdc/internal/nand"
	"flashdc/internal/sched"
	"flashdc/internal/sim"
	"flashdc/internal/wear"
)

// applyStagedAndErase erases block b, applies every staged page
// configuration (section 5.2: "updated page settings are applied on
// the next erase and write access"), resets the cache metadata, and
// returns the erase latency. Valid pages must already be gone. An
// erase failure retires the block (the grown-bad-block response);
// callers observe this through the block's state, never an error.
func (c *Cache) applyStagedAndErase(b int) sim.Duration {
	m := &c.meta[b]
	if m.valid != 0 {
		panic("core: erasing a block with valid pages")
	}
	disturbReads := int64(0)
	if c.cfg.Disturb.Enabled() {
		disturbReads = c.dev.BlockReads(b)
	}
	lat, err := c.dev.Erase(b)
	if err != nil {
		if errors.Is(err, nand.ErrEraseFailed) {
			c.stats.EraseFailures++
			c.retire(b)
			return lat
		}
		panic(err)
	}
	if disturbReads > 0 {
		// The erase re-programmed every cell, discarding the block's
		// accumulated read-disturb stress.
		c.stats.DisturbResets++
		c.eventDisturbReset(b, disturbReads)
	}
	m.progFails = 0
	for s := 0; s < nand.SlotsPerBlock; s++ {
		slot := c.fpst.Slot(b, s)
		c.setMode(b, s, slot.StagedMode)
		for sub := range slot.Pages {
			st := &slot.Pages[sub]
			st.Strength = st.StagedStrength
			st.Valid = false
			st.Access = 0
		}
	}
	freq := c.blockFreqEstimate(b)
	m.valid = 0
	m.consumed = 0
	m.cursorSlot = 0
	m.cursorSub = 0
	m.accessSum = 0
	m.lastEraseSeq = c.seq
	m.state = blockFree
	// Post-erase reliability pass: pages whose wear already exceeds
	// their (freshly applied) strength must be reconfigured before
	// reuse, or the block retired when both knobs are exhausted.
	if !c.ensureReliable(b, freq) {
		c.retire(b)
	}
	return lat
}

// ensureReliable checks every slot of the just-erased block b against
// the wear model and reconfigures pages whose wear already exceeds
// their correction capability — data written there would be lost
// immediately. Pages merely *at* the limit are left for the read-time
// heuristic (section 5.2.1), which has per-page frequency knowledge.
// It reports false when the block is beyond help.
func (c *Cache) ensureReliable(b int, freq float64) bool {
	for s := 0; s < nand.SlotsPerBlock; s++ {
		slotAddr := nand.Addr{Block: b, Slot: s}
		slot := c.fpst.Slot(b, s)
		for {
			errs := c.dev.BitErrors(slotAddr)
			if errs <= int(slot.Pages[0].Strength) {
				break
			}
			if !c.cfg.Programmable {
				return false
			}
			if !c.reconfigure(b, slotAddr, errs, freq) {
				return false
			}
			// Apply the new staging immediately: the block is erased,
			// so both knobs are legal right now.
			c.setMode(b, s, slot.StagedMode)
			for sub := range slot.Pages {
				p := &slot.Pages[sub]
				p.Strength = p.StagedStrength
			}
		}
	}
	return true
}

// blockFreqEstimate approximates the relative access frequency of the
// traffic a block carried during its last lifetime, from the access
// counters captured at invalidation time.
func (c *Cache) blockFreqEstimate(b int) float64 {
	m := &c.meta[b]
	window := c.seq - m.lastEraseSeq
	if window == 0 || m.consumed == 0 {
		return 0
	}
	perPage := float64(m.accessSum) / float64(m.consumed)
	return perPage / float64(window)
}

// retire permanently removes block b (section 5.2: ECC and density
// limits both reached). Dirty pages are flushed first.
func (c *Cache) retire(b int) {
	m := &c.meta[b]
	if m.state == blockRetired {
		return
	}
	c.eventRetire(b, m.valid)
	c.dropValid(b, false)
	c.detach(b)
	r := c.regions[m.region]
	r.blocks--
	m.state = blockRetired
	c.dev.Retire(b)
	c.stats.RetiredBlocks++
	if r.blocks < 2 {
		c.dead = true
	}
}

// dirty reports whether region r's pages are dirty: only the write
// region of a split cache holds data the disk has not seen (section
// 3.5). The unified baseline keeps no per-page dirty bit, so it never
// writes back.
func (c *Cache) dirty(r *region) bool { return len(c.regions) == 2 && r.id == writeRegion }

// writeBack flushes one dirty page to the backing store.
func (c *Cache) writeBack(lba int64) {
	c.stats.FlushedPages++
	c.cfg.Backing.WritePage(lba)
}

// dropValid invalidates every valid page of block b, writing the dirty
// ones back first, and returns how many it dropped. marginal marks a
// capacity eviction, whose dropped pages feed the marginal-utility
// estimate of the section 5.2.1 heuristics.
func (c *Cache) dropValid(b int, marginal bool) int {
	dirty := c.dirty(c.regions[c.meta[b].region])
	c.pagesScratch = c.appendValidPagesOf(c.pagesScratch[:0], b)
	for _, a := range c.pagesScratch {
		st := c.fpst.At(a)
		if marginal {
			c.noteMarginal(st)
		}
		if dirty {
			c.writeBack(st.LBA)
		}
		c.invalidate(a)
	}
	return len(c.pagesScratch)
}

// detach takes block b out of its region's tallies and out of whichever
// of the open slot, the LRU list or the free list holds it. The block
// keeps its region tag and population count.
func (c *Cache) detach(b int) {
	m := &c.meta[b]
	r := c.regions[m.region]
	if c.tallied(b) {
		c.tally(b, -1)
	}
	switch m.state {
	case blockOpen:
		// A block tagged open while detached from the region
		// (mid-migration) occupies no slot.
		if r.open == b {
			r.open = -1
		}
	case blockActive:
		if int(r.head) == b || m.prev != none {
			c.unlink(r, b)
		}
	case blockFree:
		for i, fb := range r.free {
			if fb == b {
				r.free = append(r.free[:i], r.free[i+1:]...)
				break
			}
		}
	}
}

// reuse returns the just-erased block b to region r's free list (it
// never left the population) and gives the section 3.6 wear rotation
// its chance to claim it. A block the erase retired stays out.
func (c *Cache) reuse(r *region, b int) {
	if c.meta[b].state != blockFree {
		return
	}
	r.free = append(r.free, b)
	if c.evictPol.rotate() {
		c.maybeWearRotate(b)
	}
}

// relocate moves the valid page a out-of-place into fresh space in
// region r, preserving its density, access heat and staged strength,
// and books the read and the program as background device work. stage
// marks a page that proved too weak for its configuration: the section
// 5.2.1 response is staged on the source slot so the block's next
// erase hardens it. It returns the new address and the background time
// spent; ok is false when allocation killed the cache (mass
// retirement), in which case the page is written back if dirty rather
// than lost.
func (c *Cache) relocate(a nand.Addr, r *region, stage bool) (dst nand.Addr, t sim.Duration, ok bool) {
	src := c.fpst.At(a)
	lba, mode, access, staged := src.LBA, c.dev.Mode(a), src.Access, src.StagedStrength
	res, err := c.dev.Read(a)
	if err != nil {
		panic(err)
	}
	t = res.Latency
	c.sched.Background(a.Block, sched.OpRead, res.Latency)
	if stage && c.cfg.Programmable {
		c.reconfigure(a.Block, a, res.BitErrors, c.pageFreq(src))
	}
	c.invalidate(a)
	dst, lat := c.allocProgram(r, mode, lba)
	if c.dead {
		if c.dirty(r) {
			c.writeBack(lba)
		}
		return nand.Addr{}, t, false
	}
	c.sched.Background(dst.Block, sched.OpProgram, lat)
	d := c.fpst.At(dst)
	d.Access = access
	d.StagedStrength = max(d.StagedStrength, staged)
	c.fcht.Put(lba, dst)
	return dst, t + lat, true
}

// reclaim produces at least one free block (or usable open-block
// space) in region r, via garbage collection of a fully invalid block
// when one exists, otherwise by evicting a block under the wear-level
// aware policy. Called when allocation stalls, so relocation-style GC
// is not possible here (no headroom); backgroundGC handles that case
// proactively.
func (c *Cache) reclaim(r *region) {
	// Fast path: a fully invalid active block just needs an erase.
	for b := int(r.tail); b != none; b = int(c.meta[b].prev) {
		if c.meta[b].valid == 0 {
			c.detach(b)
			c.stats.GCRuns++
			c.stats.GCTime += c.applyStagedAndErase(b)
			c.reuse(r, b)
			return
		}
	}
	c.evict(r)
}

// evict removes one block's content to make space. Victim selection
// is the eviction policy's call — the default wear-lru policy takes
// the LRU block and then honours section 3.6: after the victim is
// freed, a worn victim swaps roles with the globally newest block
// (the newest block's content migrates into the victim and the newest
// block is erased for reuse instead).
func (c *Cache) evict(r *region) {
	victim := c.evictPol.victim(c, r)
	if victim == none {
		// Nothing active: the region is degenerate (all space open or
		// retired). Close the open block so it becomes evictable.
		if r.open >= 0 {
			c.closeOpen(r)
			victim = c.evictPol.victim(c, r)
		}
		if victim == none {
			c.dead = true
			return
		}
	}
	c.evictBlock(victim)
}

// newestActive finds the active block with minimum degree of wear
// across the whole Flash ("newest blocks are chosen from the entire
// set of Flash blocks"), or none when no block is active.
func (c *Cache) newestActive() (int, float64) {
	best, bestWear := none, 0.0
	for _, r := range c.regions {
		for b := int(r.head); b != none; b = int(c.meta[b].next) {
			if w := c.fbst.WearOut(b, c.dev.EraseCount(b)); best == none || w < bestWear {
				best, bestWear = b, w
			}
		}
	}
	return best, bestWear
}

// evictBlock drops (read region) or flushes (write region) the valid
// pages of block b, erases it and returns it to its region's free
// list.
func (c *Cache) evictBlock(b int) {
	r := c.regions[c.meta[b].region]
	c.dropValid(b, true)
	c.detach(b)
	c.stats.Evictions++
	c.applyStagedAndErase(b)
	c.reuse(r, b)
}

// maybeWearRotate implements the migration path of section 3.6 for a
// just-erased block b: when b's degree of wear exceeds the globally
// newest active block's by the configured threshold, the newest
// block's live content migrates into b (parking stable data on the
// worn block) and the newest block is erased and handed to b's region
// as the fresh space instead. Region tags swap so population counts
// stay balanced. Returns false when no rotation was needed or it could
// not fit.
func (c *Cache) maybeWearRotate(b int) bool {
	newest, newestWear := c.newestActive()
	if newest == none || newest == b {
		return false
	}
	if c.fbst.WearOut(b, c.dev.EraseCount(b))-newestWear <= c.cfg.WearThreshold {
		return false
	}
	vm := &c.meta[b]
	nm := &c.meta[newest]
	homeRegion := c.regions[vm.region]
	newestRegion := c.regions[nm.region]

	c.pagesScratch = c.appendValidPagesOf(c.pagesScratch[:0], newest)
	content := c.pagesScratch
	// b must be able to hold the content: after erase slot modes are
	// free to set, so the constraint is slot count at the content's
	// densities.
	slcCount := 0
	for _, a := range content {
		if c.dev.Mode(a) == wear.SLC {
			slcCount++
		}
	}
	mlcCount := len(content) - slcCount
	if slcCount+(mlcCount+1)/2 > nand.SlotsPerBlock {
		return false
	}

	// Take b off its free list; it is about to become active.
	c.detach(b)

	// Migrate newest's content into b, preserving each page's density
	// and strength demands.
	vm.state = blockOpen
	dirty := c.dirty(newestRegion)
	for _, a := range content {
		src := c.fpst.At(a)
		lba := src.LBA
		mode := c.dev.Mode(a)
		staged := src.StagedStrength
		access := src.Access
		c.invalidate(a)
		dst, ok := c.allocIn(b, mode)
		if ok {
			if _, err := c.dev.Program(dst, uint64(lba)); err != nil {
				if !errors.Is(err, nand.ErrProgramFailed) {
					panic(err)
				}
				// Slot burned mid-migration. Retirement (if the block
				// keeps failing) waits until b's region bookkeeping is
				// consistent again.
				c.stats.ProgramFailures++
				c.noteProgramFailure(b, false)
				ok = false
			}
		}
		if !ok {
			// No room (cannot happen given the capacity check) or a
			// burned slot: flush dirty data rather than lose it.
			if dirty {
				c.writeBack(lba)
			}
			continue
		}
		c.meta[b].progFails = 0
		d := c.fpst.At(dst)
		d.Valid = true
		d.LBA = lba
		d.Access = access
		d.InsertedAt = c.seq
		d.StagedStrength = max(d.StagedStrength, staged)
		c.addValid(b, 1)
		c.fcht.Put(lba, dst)
	}
	// b now plays the newest block's role in the newest's region.
	vm.state = blockActive
	vm.region = nm.region
	c.pushFront(newestRegion, b)
	c.tally(b, 1)

	// Erase the newest block and hand it to b's former region.
	c.detach(newest)
	c.applyStagedAndErase(newest)
	if c.meta[newest].state == blockFree {
		nm.region = homeRegion.id
		homeRegion.free = append(homeRegion.free, newest)
	}
	c.stats.WearSwaps++
	c.eventWearRotate(b, newest, len(content))
	return true
}

// backgroundGC compacts invalid space without blocking the host: it
// relocates the valid pages of the GC policy's victim and erases it.
// Runs only when the region has enough free headroom to absorb the
// relocations, and returns the (background) time spent. The default
// greedy policy picks the most-invalid block and, unless force is
// set, skips blocks less than half invalid (the relocation traffic
// would exceed the space reclaimed — the unified cache's scattered
// invalid pages therefore linger, which is exactly the capacity loss
// section 3.5 attributes to it); the watermark trigger forces
// collection because the read region's aggregate capacity is already
// below target.
func (c *Cache) backgroundGC(r *region, force bool) sim.Duration {
	best, bestInvalid := c.gcPol.victim(c, r, force)
	if best == none {
		return 0
	}
	if c.freePagesIn(r) < c.meta[best].valid+4 {
		return 0 // not enough headroom to relocate safely
	}
	c.eventGCStart(best, bestInvalid)
	relocatedBefore := c.stats.GCRelocations
	var t sim.Duration
	c.gcScratch = c.appendValidPagesOf(c.gcScratch[:0], best)
	c.detach(best) // erased below
	for _, a := range c.gcScratch {
		_, lat, ok := c.relocate(a, r, false)
		t += lat
		if !ok {
			break
		}
		c.stats.GCRelocations++
	}
	c.stats.GCRuns++
	// A dead break above leaves unrelocated pages behind; drop them
	// (after flushing dirty data) so the erase invariant holds.
	c.dropValid(best, false)
	if c.meta[best].state != blockRetired {
		// The erase occupies only the victim's bank: sibling banks on
		// the same channel stay serviceable, which is the contention
		// relief channel/bank geometry buys GC-heavy workloads. It is
		// booked before reuse, whose wear rotation books more work.
		el := c.applyStagedAndErase(best)
		t += el
		c.sched.Background(best, sched.OpErase, el)
		c.reuse(r, best)
	}
	c.stats.GCTime += t
	c.eventGCEnd(best, int(c.stats.GCRelocations-relocatedBefore), int64(t))
	return t
}

// maybeGC runs the background collectors per section 5.1: the read
// region compacts when its valid fraction drops below the watermark;
// the write region compacts when free space runs low. The watermark is
// checked every 32 host operations. The check reads the region tallies
// and is O(1), but the cadence decides when collection starts (and
// checkpoints carry it), so it stays.
func (c *Cache) maybeGC() {
	if len(c.regions) == 2 {
		c.gcCheck++
		if c.gcCheck&31 == 0 {
			rr := c.regions[readRegion]
			if rr.pages > 0 && float64(rr.valid)/float64(rr.pages) < c.cfg.Watermark {
				c.backgroundGC(rr, true)
			}
		}
		wr := c.regions[writeRegion]
		if c.freePagesIn(wr) < 2*c.pagesPerFreshBlock() {
			c.backgroundGC(wr, false)
		}
		return
	}
	r := c.regions[0]
	if c.freePagesIn(r) < 2*c.pagesPerFreshBlock() {
		c.backgroundGC(r, false)
	}
}

package core

import (
	"errors"

	"flashdc/internal/nand"
	"flashdc/internal/sim"
	"flashdc/internal/tables"
	"flashdc/internal/wear"
)

// blockLifecycle is where a block sits in the free -> open -> active ->
// (erase) -> free cycle.
type blockLifecycle uint8

const (
	blockFree blockLifecycle = iota
	blockOpen
	blockActive
	blockRetired
)

// blockMeta is the cache's per-block bookkeeping, complementing the
// FBST (which holds the paper-visible wear statistics).
type blockMeta struct {
	state  blockLifecycle
	region int
	// valid is the number of live pages; consumed the number of page
	// positions the allocator has passed (valid + invalidated +
	// skipped sub-pages).
	valid    int
	consumed int
	// cursorSlot/cursorSub is the next allocation position.
	cursorSlot int
	cursorSub  int
	// prev/next link the block into its region's LRU list while
	// active (prev toward the front); none when unlinked.
	prev, next int32
	// accessSum accumulates the FPST access counters of pages at
	// invalidation time, giving the erase-time reconfiguration
	// heuristic a frequency estimate for the block's traffic.
	accessSum uint64
	// lastEraseSeq is the cache access sequence at the last erase.
	lastEraseSeq uint64
	// progFails counts consecutive program failures; at
	// programFailLimit the block is retired as grown-bad.
	progFails int
}

// payoff is 1 when a non-forced collection of the block would pay for
// its relocations (at least half its consumed pages invalid), else 0.
func (m *blockMeta) payoff() int {
	if invalid := m.consumed - m.valid; invalid > 0 && 2*invalid >= m.consumed {
		return 1
	}
	return 0
}

// region is one disk-cache partition (read or write), owning a
// disjoint set of blocks.
type region struct {
	id int
	// free holds erased blocks ready to open.
	free []int
	// open is the block currently being filled, or -1.
	open int
	// head (most recently used) and tail end the LRU list of active
	// (fully allocated) blocks, linked through blockMeta.prev/next.
	head, tail int32
	// blocks is the current population (free + open + active).
	blocks int
	// pages and valid tally the page capacity and the live pages of the
	// open and active blocks (see tallied), which keeps the read-region
	// watermark check O(1).
	pages, valid int
	// payoff counts the LRU-listed blocks whose payoff is 1: at zero a
	// non-forced GC call has no victim and returns without a walk.
	payoff int
}

// none is the null block number: no link, no open block, no victim.
const none = -1

func newRegion(id int) *region {
	return &region{id: id, open: none, head: none, tail: none}
}

func (r *region) addFree(b int) {
	r.free = append(r.free, b)
	r.blocks++
}

// popFree removes and returns one erased block, or -1.
func (r *region) popFree() int {
	if len(r.free) == 0 {
		return -1
	}
	b := r.free[len(r.free)-1]
	r.free = r.free[:len(r.free)-1]
	return b
}

// touch marks block b most recently used. A linked block other than
// the head has a predecessor; the head is already in place.
func (c *Cache) touch(b int) {
	if m := &c.meta[b]; m.state == blockActive && m.prev != none {
		r := c.regions[m.region]
		c.unlink(r, b)
		c.pushFront(r, b)
	}
}

// pushFront links block b into region r's LRU list as most recently
// used.
func (c *Cache) pushFront(r *region, b int) {
	m := &c.meta[b]
	m.prev, m.next = none, r.head
	if r.head != none {
		c.meta[r.head].prev = int32(b)
	} else {
		r.tail = int32(b)
	}
	r.head = int32(b)
}

// unlink takes block b off region r's LRU list.
func (c *Cache) unlink(r *region, b int) {
	m := &c.meta[b]
	if m.prev != none {
		c.meta[m.prev].next = m.next
	} else {
		r.head = m.next
	}
	if m.next != none {
		c.meta[m.next].prev = m.prev
	} else {
		r.tail = m.prev
	}
	m.prev, m.next = none, none
}

// freePagesIn returns how many more pages the region can allocate
// without reclaiming (open-block remainder plus free blocks).
func (c *Cache) freePagesIn(r *region) int {
	n := len(r.free) * c.pagesPerFreshBlock()
	if r.open >= 0 {
		n += c.dev.PagesPerBlock(r.open) - c.meta[r.open].consumed
	}
	return n
}

// pagesPerFreshBlock conservatively estimates an erased block's page
// yield (its slots may be SLC, so use the SLC floor).
func (c *Cache) pagesPerFreshBlock() int { return nand.SlotsPerBlock }

// tallied reports whether block b counts in its region's page tallies:
// it is the region's open block or sits on the region's LRU list (it is
// the head or has a predecessor). A block detached mid-GC or
// mid-migration does not count until it rejoins.
func (c *Cache) tallied(b int) bool {
	m := &c.meta[b]
	switch m.state {
	case blockOpen:
		return c.regions[m.region].open == b
	case blockActive:
		return int(c.regions[m.region].head) == b || m.prev != none
	}
	return false
}

// tally adds (sign +1) or removes (sign -1) block b's pages and live
// pages, and an active block's payoff, to or from its region's
// tallies. Callers invoke it whenever b joins or leaves the region's
// open slot or LRU list; closeOpen, which moves the open block onto
// the list, adds the payoff itself.
func (c *Cache) tally(b, sign int) {
	m := &c.meta[b]
	r := c.regions[m.region]
	r.pages += sign * c.dev.PagesPerBlock(b)
	r.valid += sign * m.valid
	if m.state == blockActive {
		r.payoff += sign * m.payoff()
	}
}

// retally rebuilds every region's tallies from scratch, after a
// checkpoint or metadata image has replaced the block bookkeeping.
func (c *Cache) retally() {
	for _, r := range c.regions {
		r.pages, r.valid, r.payoff = 0, 0, 0
	}
	for b := range c.meta {
		if c.tallied(b) {
			c.tally(b, 1)
		}
	}
}

// addValid changes block b's live-page count by delta, keeping the
// global count and b's region tallies in step.
func (c *Cache) addValid(b, delta int) {
	m := &c.meta[b]
	before := m.payoff()
	m.valid += delta
	c.totalValid += int64(delta)
	if c.tallied(b) {
		r := c.regions[m.region]
		r.valid += delta
		if m.state == blockActive {
			r.payoff += m.payoff() - before
		}
	}
}

// setMode switches slot s of the erased block b to the given density
// when it differs, keeping b's region page tally in step, and reports
// whether it changed the slot.
func (c *Cache) setMode(b, s int, mode wear.Mode) bool {
	if c.dev.Mode(nand.PageAddr(b, s, 0)) == mode {
		return false
	}
	before := c.dev.PagesPerBlock(b)
	if err := c.dev.SetMode(b, s, mode); err != nil {
		panic(err)
	}
	if c.tallied(b) {
		c.regions[c.meta[b].region].pages += c.dev.PagesPerBlock(b) - before
	}
	return true
}

// tryAlloc returns the next free page of the open block matching the
// requested density, advancing the cursor. ok is false when the open
// block cannot serve the request (full, or absent); a full open block
// moves to the active LRU.
func (c *Cache) tryAlloc(r *region, mode wear.Mode) (nand.Addr, bool) {
	if r.open < 0 {
		return 0, false
	}
	if addr, ok := c.allocIn(r.open, mode); ok {
		return addr, true
	}
	c.closeOpen(r)
	return 0, false
}

// allocIn walks block b's allocation cursor to the next free page of
// the requested density and returns it; ok is false when b is full.
func (c *Cache) allocIn(b int, mode wear.Mode) (nand.Addr, bool) {
	m := &c.meta[b]
	for m.cursorSlot < nand.SlotsPerBlock {
		slotAddr := nand.PageAddr(b, m.cursorSlot, 0)
		if m.cursorSub == 0 {
			// Untouched slot: set the desired density before first
			// program (legal only while erased).
			if c.setMode(b, m.cursorSlot, mode) {
				c.fpst.Slot(slotAddr).StagedMode = mode
			}
			m.consumed++
			if mode == wear.MLC {
				m.cursorSub = 1
			} else {
				m.cursorSlot++
			}
			return slotAddr, true
		}
		// Slot is MLC with sub 0 consumed.
		if mode == wear.MLC {
			addr := nand.PageAddr(b, m.cursorSlot, 1)
			m.cursorSlot++
			m.cursorSub = 0
			m.consumed++
			return addr, true
		}
		// SLC requested but the slot is half-filled MLC: skip the
		// second sub-page (it stays unprogrammed until erase, a
		// capacity loss GC reclaims).
		m.consumed++
		m.cursorSlot++
		m.cursorSub = 0
	}
	return 0, false
}

// closeOpen moves the region's open block into the active LRU.
func (c *Cache) closeOpen(r *region) {
	if r.open < 0 {
		return
	}
	c.meta[r.open].state = blockActive
	c.pushFront(r, r.open)
	r.payoff += c.meta[r.open].payoff()
	r.open = none
}

// openBlock promotes a free block to open.
func (c *Cache) openBlock(r *region, b int) {
	m := &c.meta[b]
	m.state = blockOpen
	m.region = r.id
	r.open = b
	c.tally(b, 1)
}

// allocProgram obtains a free page of the requested density in the
// region, programs it with the LBA token, and registers the page as
// valid. It reclaims space as needed, remaps around program failures
// (the burned slot is skipped; the data retries on the next free
// page), and returns the accumulated program latency. The attempt
// bound covers the worst legitimate case — every page position of
// every block failing before space appears — so a true no-progress
// loop still trips it.
func (c *Cache) allocProgram(r *region, mode wear.Mode, lba int64) (nand.Addr, sim.Duration) {
	var lat sim.Duration
	for attempt := 0; ; attempt++ {
		if attempt > 2*len(c.meta)*nand.SlotsPerBlock+64 {
			panic("core: allocator made no progress")
		}
		if addr, ok := c.tryAlloc(r, mode); ok {
			plat, err := c.dev.Program(addr, uint64(lba))
			lat += plat
			if err != nil {
				if errors.Is(err, nand.ErrProgramFailed) {
					// The slot is burned but the data is safe in the
					// caller's hands: count the failure, retire the
					// block if it keeps failing, and remap to the
					// next free page.
					c.stats.ProgramFailures++
					c.stats.Remaps++
					c.noteProgramFailure(addr.Block(), true)
					continue
				}
				panic(err)
			}
			c.meta[addr.Block()].progFails = 0
			st := c.fpst.At(addr)
			st.Valid = true
			st.LBA = lba
			st.Access = 0
			st.InsertedAt = c.seq
			c.addValid(addr.Block(), 1)
			return addr, lat
		}
		if c.dead {
			return 0, lat
		}
		if b := r.popFree(); b >= 0 {
			c.openBlock(r, b)
			continue
		}
		c.reclaim(r)
	}
}

// programFailLimit is how many consecutive program failures a block may
// suffer before it is retired as grown-bad.
const programFailLimit = 3

// noteProgramFailure records one program failure on block b and, when
// allowed, retires the block after programFailLimit consecutive
// failures (the grown-bad-block response of real controllers).
// Retirement is deferred when the caller is mid-migration and the
// block's region bookkeeping is transiently inconsistent.
func (c *Cache) noteProgramFailure(b int, allowRetire bool) {
	m := &c.meta[b]
	m.progFails++
	if allowRetire && m.progFails >= programFailLimit {
		c.retire(b)
	}
}

// invalidate marks a cached page dead and removes its mapping.
func (c *Cache) invalidate(addr nand.Addr) {
	st := c.fpst.At(addr)
	if !st.Valid {
		return
	}
	m := &c.meta[addr.Block()]
	m.accessSum += uint64(st.Access)
	c.fcht.Delete(st.LBA)
	st.Valid = false
	st.LBA = tables.InvalidLBA
	st.Access = 0
	c.addValid(addr.Block(), -1)
}

// appendValidPagesOf appends block b's valid page addresses to dst and
// returns the extended slice (an SLC slot's sub-page 1 is never valid).
// Callers pass a cache-owned scratch buffer to stay off the allocator.
// pagesScratch is for call sites whose iteration body cannot reach
// another pagesScratch listing; dropValid uses it, so the GC relocation
// loop, whose allocProgram can evict or retire a block mid-flight,
// iterates gcScratch instead.
func (c *Cache) appendValidPagesOf(dst []nand.Addr, b int) []nand.Addr {
	for s := 0; s < nand.SlotsPerBlock; s++ {
		for sub := 0; sub < 2; sub++ {
			if a := nand.PageAddr(b, s, sub); c.fpst.At(a).Valid {
				dst = append(dst, a)
			}
		}
	}
	return dst
}

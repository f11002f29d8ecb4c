package core

import (
	"fmt"

	"flashdc/internal/nand"
)

// CheckIntegrity audits the cross-layer invariants a fault campaign
// must never be able to break: every FCHT mapping points at a valid
// Flash page outside any retired block, is filed under the tag and
// probe chain of the LBA that page's FPST entry names, and finds that
// page's stored token equal to the LBA (no silent data corruption);
// and the per-block and global valid-page counters agree with the
// page tables. It charges no device operations and returns the first
// violation found, or nil.
func (c *Cache) CheckIntegrity() error {
	var firstErr error
	entries := int64(0)
	// Range reads each mapping's LBA from the FPST (the FCHT keeps
	// none), so Holds checks that LBA against the slot's own tag.
	c.fcht.Range(func(lba int64, a nand.Addr) bool {
		entries++
		if c.meta[a.Block()].state == blockRetired {
			firstErr = fmt.Errorf("core: integrity: lba %d maps into retired block %d", lba, a.Block())
			return false
		}
		if !c.fpst.At(a).Valid {
			firstErr = fmt.Errorf("core: integrity: lba %d maps to invalid page %v", lba, a)
			return false
		}
		if !c.fcht.Holds(lba, a) {
			firstErr = fmt.Errorf("core: integrity: page %v holds lba %d, but the FCHT maps to it under another key", a, lba)
			return false
		}
		tok, ok := c.dev.Peek(a)
		if !ok {
			firstErr = fmt.Errorf("core: integrity: lba %d maps to unprogrammed page %v", lba, a)
			return false
		}
		if tok != uint64(lba) {
			firstErr = fmt.Errorf("core: integrity: DATA CORRUPTION at %v: stored %d, want %d",
				a, tok, lba)
			return false
		}
		return true
	})
	if firstErr != nil {
		return firstErr
	}
	if entries != c.totalValid {
		return fmt.Errorf("core: integrity: FCHT has %d entries, %d pages counted valid",
			entries, c.totalValid)
	}
	var valid int64
	for b := range c.meta {
		if c.meta[b].state == blockRetired {
			continue
		}
		c.pagesScratch = c.appendValidPagesOf(c.pagesScratch[:0], b)
		if n := len(c.pagesScratch); n != c.meta[b].valid {
			return fmt.Errorf("core: integrity: block %d counts %d valid pages, tables hold %d",
				b, c.meta[b].valid, n)
		}
		valid += int64(c.meta[b].valid)
	}
	if valid != c.totalValid {
		return fmt.Errorf("core: integrity: %d valid pages in tables, %d counted globally",
			valid, c.totalValid)
	}
	return c.checkStructure()
}

// checkStructure audits the allocator's bookkeeping: every block lives
// in exactly one lifecycle home (a region's free list, a region's open
// slot, a region's LRU list, or retirement), each LRU list's back-links
// and tail agree with its forward walk, region populations add up, and
// per-block counters stay within the geometry.
func (c *Cache) checkStructure() error {
	// home[b] records where block b was found among the region
	// structures; every block must be claimed exactly once.
	home := make([]string, len(c.meta))
	claim := func(b int, where string) error {
		if b < 0 || b >= len(c.meta) {
			return fmt.Errorf("core: integrity: %s lists out-of-range block %d", where, b)
		}
		if home[b] != "" {
			return fmt.Errorf("core: integrity: block %d claimed by both %s and %s",
				b, home[b], where)
		}
		home[b] = where
		return nil
	}
	for _, r := range c.regions {
		for _, b := range r.free {
			if err := claim(b, fmt.Sprintf("region %d free list", r.id)); err != nil {
				return err
			}
			if c.meta[b].state != blockFree {
				return fmt.Errorf("core: integrity: block %d on region %d free list in state %d",
					b, r.id, c.meta[b].state)
			}
		}
		if r.open >= 0 {
			if err := claim(r.open, fmt.Sprintf("region %d open slot", r.id)); err != nil {
				return err
			}
			m := &c.meta[r.open]
			if m.state != blockOpen || m.region != r.id {
				return fmt.Errorf("core: integrity: open block %d of region %d has (state %d, region %d)",
					r.open, r.id, m.state, m.region)
			}
		}
		// claim stops the walk at an out-of-range link or a revisited
		// block, so a cycle ends it within len(c.meta)+1 steps.
		prev, linked, payoff := none, 0, 0
		for b := int(r.head); b != none; b = int(c.meta[b].next) {
			if err := claim(b, fmt.Sprintf("region %d LRU", r.id)); err != nil {
				return err
			}
			m := &c.meta[b]
			if m.state != blockActive || m.region != r.id {
				return fmt.Errorf("core: integrity: LRU block %d of region %d has (state %d, region %d)",
					b, r.id, m.state, m.region)
			}
			if int(m.prev) != prev {
				return fmt.Errorf("core: integrity: LRU block %d links back to %d, not its predecessor %d", b, m.prev, prev)
			}
			prev = b
			linked++
			payoff += m.payoff()
		}
		if int(r.tail) != prev {
			return fmt.Errorf("core: integrity: region %d LRU tail is block %d, its walk ends at %d", r.id, r.tail, prev)
		}
		population := len(r.free) + linked
		if r.open >= 0 {
			population++
		}
		if population != r.blocks {
			return fmt.Errorf("core: integrity: region %d holds %d blocks, accounts for %d",
				r.id, population, r.blocks)
		}
		var pages, valid int
		for b := range c.meta {
			if c.meta[b].region == r.id && c.tallied(b) {
				pages += c.dev.PagesPerBlock(b)
				valid += c.meta[b].valid
			}
		}
		if pages != r.pages || valid != r.valid || payoff != r.payoff {
			return fmt.Errorf("core: integrity: region %d tallies (%d pages, %d valid, %d worth collecting), blocks hold (%d, %d, %d)",
				r.id, r.pages, r.valid, r.payoff, pages, valid, payoff)
		}
	}
	for b := range c.meta {
		m := &c.meta[b]
		if m.state == blockRetired {
			if home[b] != "" {
				return fmt.Errorf("core: integrity: retired block %d still on %s", b, home[b])
			}
			continue
		}
		if home[b] == "" {
			return fmt.Errorf("core: integrity: block %d in state %d belongs to no region structure",
				b, m.state)
		}
		pages := c.dev.PagesPerBlock(b)
		if m.valid < 0 || m.consumed < 0 || m.valid > m.consumed || m.consumed > pages {
			return fmt.Errorf("core: integrity: block %d counters out of range (valid %d, consumed %d, pages %d)",
				b, m.valid, m.consumed, pages)
		}
	}
	return nil
}

// RangeCached calls fn for every cached LBA and its Flash address
// until fn returns false, in unspecified order. It is the read-only
// enumeration surface differential checkers diff against a reference
// model; it charges no device operations.
func (c *Cache) RangeCached(fn func(lba int64, a nand.Addr) bool) {
	c.fcht.Range(fn)
}

package dram

import "fmt"

// Checkpoint/Restore expose the PDC's full replacement state for the
// campaign checkpoint: the resident pages and their dirty bits in
// recency order, so a resumed run evicts the same victims as the
// unbroken one.

// PageState is one resident page as the checkpoint records it.
type PageState struct {
	LBA   int64
	Dirty bool
}

// Checkpoint returns the resident pages from most to least recently
// used, with their dirty bits.
func (c *Cache) Checkpoint() []PageState {
	out := make([]PageState, 0, c.count)
	for i := c.head; i != none; i = c.nodes[i].next {
		nd := &c.nodes[i]
		out = append(out, PageState{LBA: nd.lba, Dirty: nd.dirty})
	}
	return out
}

// Restore replaces the cache contents with the checkpointed pages
// (MRU-first, as Checkpoint produced them) and the checkpointed
// activity counters. The cache keeps its capacity; pages beyond the
// capacity or duplicated LBAs reject the whole restore before any
// state changes.
func (c *Cache) Restore(pages []PageState, stats Stats) error {
	if len(pages) > c.capacity {
		return fmt.Errorf("dram: checkpoint holds %d pages, cache fits %d", len(pages), c.capacity)
	}
	seen := make(map[int64]bool, len(pages))
	for _, p := range pages {
		if seen[p.LBA] {
			return fmt.Errorf("dram: checkpoint caches LBA %d twice", p.LBA)
		}
		seen[p.LBA] = true
	}
	c.nodes = c.nodes[:0]
	c.free = c.free[:0]
	c.head, c.tail = none, none
	c.count = 0
	c.index.Clear()
	// Insert LRU-first so the rebuilt recency list matches the
	// checkpointed order exactly.
	for i := len(pages) - 1; i >= 0; i-- {
		c.insert(pages[i].LBA, pages[i].Dirty)
	}
	c.stats = stats
	return nil
}

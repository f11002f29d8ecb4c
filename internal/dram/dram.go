// Package dram models the DRAM primary disk cache (PDC) that fronts
// the Flash secondary disk cache in the paper's architecture (Figure
// 2): an LRU page cache with write-back dirty tracking, plus the DDR2
// timing and power constants of Table 2 that the Figure 9 energy
// breakdown consumes.
package dram

import (
	"fmt"
	"unsafe"

	"flashdc/internal/lbaindex"
	"flashdc/internal/sim"
)

// PageSize is the disk-cache page granularity in bytes, matching the
// Flash page.
const PageSize = 2048

// DIMMBytes is the capacity of one DDR2 DIMM in the paper's
// configuration (Table 3: 128MB to 512MB as 1 to 4 DIMMs).
const DIMMBytes = 128 << 20

// Power and timing constants from Table 2.
const (
	// ActivePowerWatts is per-DIMM power while servicing an access.
	ActivePowerWatts = 0.878
	// IdlePowerWatts is per-DIMM idle power in active mode.
	IdlePowerWatts = 0.080
	// AccessLatency is the row-cycle-dominated latency to move one
	// 2KB page (tRC 50ns plus burst transfer).
	AccessLatency = 700 * sim.Nanosecond
)

// Stats counts cache activity for the power model.
type Stats struct {
	Reads, Writes int64
	Hits, Misses  int64
}

// Merge adds other's counters into s, combining per-shard DRAM cache
// activity into one total.
func (s *Stats) Merge(other Stats) {
	s.Reads += other.Reads
	s.Writes += other.Writes
	s.Hits += other.Hits
	s.Misses += other.Misses
}

// ReadBusyTime returns total DRAM busy time attributable to reads.
func (s Stats) ReadBusyTime() sim.Duration {
	return sim.Duration(s.Reads) * AccessLatency
}

// WriteBusyTime returns total DRAM busy time attributable to writes.
func (s Stats) WriteBusyTime() sim.Duration {
	return sim.Duration(s.Writes) * AccessLatency
}

// Policy names a PDC replacement algorithm. Strict LRU is the only
// one; the type and NewCacheWithPolicy remain only because the
// benchmark module's ledger (bench/ledger.go) still names them.
type Policy uint8

// LRU is strict least-recently-used.
const LRU Policy = 0

// Evicted describes a page pushed out of the cache.
type Evicted struct {
	LBA   int64
	Dirty bool
}

// none is the null node index of the intrusive recency list.
const none = int32(-1)

// Cache is the LRU primary disk cache. It tracks presence and dirty
// state of 2KB disk pages; payloads are not stored (trace-driven
// simulation). Not safe for concurrent use.
//
// Recency is an intrusive doubly-linked list threaded through a flat
// node slab indexed by int32: one slab grows to the capacity once and
// is recycled through a free list afterwards, so the steady-state
// request path performs no allocation per insert or eviction (the
// container/list predecessor allocated an element plus an entry per
// insert and left the evicted page behind as garbage).
type Cache struct {
	capacity int
	nodes    []node
	free     []int32 // recycled slab slots
	head     int32   // most recently used, none when empty
	tail     int32   // least recently used, none when empty
	count    int
	index    *lbaindex.Table // LBA -> node slot, bounded by capacity
	stats    Stats
}

type node struct {
	lba        int64
	prev, next int32
	dirty      bool
}

// NewCache builds an LRU cache holding capacityBytes of pages. It
// panics if the capacity is smaller than one page or larger than
// lbaindex.MaxBound pages.
func NewCache(capacityBytes int64) *Cache {
	pages := int(capacityBytes / PageSize)
	if pages < 1 {
		panic("dram: cache smaller than one page")
	}
	c := &Cache{capacity: pages, head: none, tail: none}
	// The index keeps no keys: a node's lba is the key of its slot.
	c.index = lbaindex.New(pages, func(i int32) int64 { return c.nodes[i].lba })
	return c
}

// ResidentBytes returns the bytes a cache of capacityBytes holds once
// full: its node slab and its index.
func ResidentBytes(capacityBytes int64) int64 {
	pages := capacityBytes / PageSize
	return pages*int64(unsafe.Sizeof(node{})) + lbaindex.Bytes(int(pages))
}

// NewCacheWithPolicy is NewCache for the one policy, LRU; it panics
// on any other value rather than ignore it.
func NewCacheWithPolicy(capacityBytes int64, p Policy) *Cache {
	if p != LRU {
		panic(fmt.Sprintf("dram: unknown replacement policy %d", p))
	}
	return NewCache(capacityBytes)
}

// unlink detaches node i from the recency list.
func (c *Cache) unlink(i int32) {
	nd := &c.nodes[i]
	if nd.prev != none {
		c.nodes[nd.prev].next = nd.next
	} else {
		c.head = nd.next
	}
	if nd.next != none {
		c.nodes[nd.next].prev = nd.prev
	} else {
		c.tail = nd.prev
	}
}

// pushFront makes node i the most recently used.
func (c *Cache) pushFront(i int32) {
	nd := &c.nodes[i]
	nd.prev = none
	nd.next = c.head
	if c.head != none {
		c.nodes[c.head].prev = i
	}
	c.head = i
	if c.tail == none {
		c.tail = i
	}
}

// moveToFront refreshes node i to most recently used.
func (c *Cache) moveToFront(i int32) {
	if c.head == i {
		return
	}
	c.unlink(i)
	c.pushFront(i)
}

// CapacityPages returns the cache size in pages.
func (c *Cache) CapacityPages() int { return c.capacity }

// Len returns the number of resident pages.
func (c *Cache) Len() int { return c.count }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Read looks lba up, refreshing recency on a hit. The latency covers
// the DRAM access itself; on a miss latency is zero (the caller pays
// the lower levels).
func (c *Cache) Read(lba int64) (hit bool, latency sim.Duration) {
	if i, ok := c.index.Get(lba); ok {
		c.moveToFront(i)
		c.stats.Reads++
		c.stats.Hits++
		return true, AccessLatency
	}
	c.stats.Misses++
	return false, 0
}

// Write updates or inserts lba as dirty, refreshing recency. When
// evicted is true the returned page was pushed out to make room and
// must be flushed by the caller if dirty.
func (c *Cache) Write(lba int64) (lat sim.Duration, ev Evicted, evicted bool) {
	c.stats.Writes++
	if i, ok := c.index.Get(lba); ok {
		c.nodes[i].dirty = true
		c.moveToFront(i)
		return AccessLatency, Evicted{}, false
	}
	ev, evicted = c.insert(lba, true)
	return AccessLatency, ev, evicted
}

// Fill inserts a clean page fetched from a lower level (Flash or
// disk). When evicted is true the returned page must be flushed by
// the caller if dirty.
func (c *Cache) Fill(lba int64) (lat sim.Duration, ev Evicted, evicted bool) {
	c.stats.Writes++ // a fill writes the page into DRAM
	if i, ok := c.index.Get(lba); ok {
		c.moveToFront(i)
		return AccessLatency, Evicted{}, false
	}
	ev, evicted = c.insert(lba, false)
	return AccessLatency, ev, evicted
}

// Dirty reports whether lba is resident and dirty.
func (c *Cache) Dirty(lba int64) bool {
	if i, ok := c.index.Get(lba); ok {
		return c.nodes[i].dirty
	}
	return false
}

// Clean marks a resident page clean (after a write-back).
func (c *Cache) Clean(lba int64) {
	if i, ok := c.index.Get(lba); ok {
		c.nodes[i].dirty = false
	}
}

// DirtyPages returns the LBAs of all dirty resident pages, unordered.
// Used to flush the PDC at end of simulation.
func (c *Cache) DirtyPages() []int64 {
	var out []int64
	for i := c.head; i != none; i = c.nodes[i].next {
		if nd := &c.nodes[i]; nd.dirty {
			out = append(out, nd.lba)
		}
	}
	return out
}

// Range calls fn for every resident page from most to least recently
// used, with its dirty bit, until fn returns false. It does not touch
// recency or counters — it is the read-only enumeration surface
// differential checkers diff against a reference model.
func (c *Cache) Range(fn func(lba int64, dirty bool) bool) {
	for i := c.head; i != none; i = c.nodes[i].next {
		nd := &c.nodes[i]
		if !fn(nd.lba, nd.dirty) {
			return
		}
	}
}

func (c *Cache) insert(lba int64, dirty bool) (ev Evicted, evicted bool) {
	if c.count >= c.capacity {
		ev, evicted = c.removeTail(), true
	}
	var i int32
	if nfree := len(c.free); nfree > 0 {
		i = c.free[nfree-1]
		c.free = c.free[:nfree-1]
	} else {
		c.nodes = append(c.nodes, node{})
		i = int32(len(c.nodes) - 1)
	}
	c.nodes[i] = node{lba: lba, dirty: dirty, prev: none, next: none}
	c.pushFront(i)
	c.index.Put(lba, i)
	c.count++
	return ev, evicted
}

// removeTail unlinks and returns the current LRU page, the eviction
// victim of a full cache.
func (c *Cache) removeTail() Evicted {
	i := c.tail
	nd := &c.nodes[i]
	ev := Evicted{LBA: nd.lba, Dirty: nd.dirty}
	c.index.Delete(nd.lba)
	c.unlink(i)
	c.free = append(c.free, i)
	c.count--
	return ev
}

// ResetStats zeroes the activity counters (e.g. after cache warmup).
func (c *Cache) ResetStats() { c.stats = Stats{} }

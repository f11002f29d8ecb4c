// Package lbaindex is the bounded hash table the controller keeps in
// DRAM for its per-request lookups (section 5.1): the primary disk
// cache's page index and the FlashCache hash table (FCHT, section 3.1)
// both map a disk page number to a small integer and never hold more
// entries than the cache has pages.
//
// The table uses linear probing over 16-byte slots with a fixed,
// unseeded multiplicative hash, so the same operations always leave
// the same layout, and backward-shift deletion, so deletes leave no
// tombstones and probe chains stay as short under insert/delete churn
// as after a fresh fill. Its entry bound is fixed at construction: the
// slot array starts small and doubles until it reaches the power of
// two at or above twice the bound, so the load factor never exceeds
// one half, and after that it never grows or rehashes.
//
// A lookup that misses is usually followed by an insert of the same
// key (a cache fill after a cache miss), so the table remembers the
// key of the last missed Get and the empty slot that ended its probe
// chain. A repeat Get of that key answers at once and a Put of it
// writes straight to that slot, leaving the layout exactly as a fresh
// probe would. Anything that could move that slot forgets it: every
// Put, Clear and resize, and a Delete whose backward shift runs in the
// same probe cluster.
package lbaindex

import (
	"fmt"
	"math/bits"
)

// minSlots is the initial slot count. A small start keeps an idle
// table cheap: allocating the full array up front costs page faults at
// construction for capacity a short run may never use.
const minSlots = 16

// slot is one table cell. full marks it occupied, so every int64 key,
// including negative ones, is storable.
type slot struct {
	key  int64
	val  int32
	full bool
}

// Table maps int64 keys to int32 values, holding at most the bound
// given to New. The zero value is not usable. Not safe for concurrent
// use.
type Table struct {
	slots []slot
	mask  uint64 // len(slots)-1
	shift uint8  // 64 - log2(len(slots)): hash bits kept
	count int
	bound int
	// missKey is the key of the last missed Get and missSlot the empty
	// slot ending its probe chain, or noMiss when nothing is remembered.
	missKey  int64
	missSlot uint64
}

// noMiss is the missSlot of a table that remembers no miss.
const noMiss = ^uint64(0)

// New returns an empty table that holds up to bound entries. It panics
// if bound is not positive.
func New(bound int) *Table {
	if bound <= 0 {
		panic(fmt.Sprintf("lbaindex: bound %d, want at least 1", bound))
	}
	// Put doubles the array while count > len/2, so it stops at the
	// power of two at or above 2*bound.
	full := 1 << bits.Len(uint(2*bound-1))
	t := &Table{bound: bound}
	t.resize(min(minSlots, full))
	return t
}

// resize replaces the slot array with n empty slots (n a power of
// two) and reinserts every entry.
func (t *Table) resize(n int) {
	old := t.slots
	t.slots = make([]slot, n)
	t.missSlot = noMiss
	t.mask = uint64(n - 1)
	t.shift = uint8(64 - bits.TrailingZeros(uint(n)))
	for i := range old {
		if s := &old[i]; s.full {
			t.slots[t.find(s.key)] = *s
		}
	}
}

// fibonacci is 2^64 divided by the golden ratio, the multiplier of
// the Fibonacci hash.
const fibonacci = 0x9e3779b97f4a7c15

// home is key's preferred slot: the top bits of a Fibonacci hash,
// which spread consecutive disk pages across the table.
func (t *Table) home(key int64) uint64 {
	return (uint64(key) * fibonacci) >> t.shift
}

// find returns the slot holding key, or the empty slot ending its
// probe chain. It spells home out, and Get stays this terse, so that
// Get fits the compiler's inlining budget: the callers look up on
// every request.
func (t *Table) find(key int64) uint64 {
	i := (uint64(key) * fibonacci) >> t.shift
	for t.slots[i].full && t.slots[i].key != key {
		i = (i + 1) & t.mask
	}
	return i
}

// Get returns the value stored for key. A miss is remembered, so a
// repeat Get of that key answers without probing.
func (t *Table) Get(key int64) (val int32, ok bool) {
	if key != t.missKey || t.missSlot == noMiss {
		i := t.find(key)
		if val, ok = t.slots[i].val, t.slots[i].full; !ok {
			t.missKey, t.missSlot = key, i
		}
	}
	return val, ok
}

// Put stores val for key, replacing any previous value. It panics if
// key is new and the table already holds its bound of entries: callers
// size the bound from the cache geometry, so overflowing it is a bug.
func (t *Table) Put(key int64, val int32) {
	i := t.missSlot
	if key != t.missKey || i == noMiss {
		i = t.find(key)
	}
	t.missSlot = noMiss
	if t.slots[i].full {
		t.slots[i].val = val
		return
	}
	if t.count >= t.bound {
		panic(fmt.Sprintf("lbaindex: inserting key %d past the bound of %d entries", key, t.bound))
	}
	if 2*(t.count+1) > len(t.slots) {
		t.resize(2 * len(t.slots))
		i = t.find(key)
	}
	t.slots[i] = slot{key: key, val: val, full: true}
	t.count++
}

// Delete removes key if present. The entries after it in its probe
// cluster shift back into the hole whenever that keeps them reachable
// from their home slot, so no tombstone is left behind.
func (t *Table) Delete(key int64) {
	hole := t.find(key)
	if !t.slots[hole].full {
		return
	}
	t.count--
	j := (hole + 1) & t.mask
	for ; t.slots[j].full; j = (j + 1) & t.mask {
		// The entry at j may fill the hole only if its home does not
		// lie cyclically in (hole, j]: it must stay at or after home.
		if (j-t.home(t.slots[j].key))&t.mask >= (j-hole)&t.mask {
			t.slots[hole] = t.slots[j]
			hole = j
		}
	}
	t.slots[hole] = slot{}
	if j == t.missSlot {
		// The shift ran in the remembered miss's cluster: the hole it
		// left may now end that key's probe chain.
		t.missSlot = noMiss
	}
}

// Len returns the number of entries.
func (t *Table) Len() int { return t.count }

// Clear removes every entry, keeping the slot array.
func (t *Table) Clear() {
	clear(t.slots)
	t.count = 0
	t.missSlot = noMiss
}

// Range calls fn for every entry until fn returns false. The order is
// the slot order: fixed by the sequence of operations, but otherwise
// unspecified. fn must not mutate the table.
func (t *Table) Range(fn func(key int64, val int32) bool) {
	for i := range t.slots {
		if s := &t.slots[i]; s.full && !fn(s.key, s.val) {
			return
		}
	}
}

// Package lbaindex is the bounded hash table the controller keeps in
// DRAM for its per-request lookups (section 5.1): the primary disk
// cache's page index and the FlashCache hash table (FCHT, section 3.1)
// both map a disk page number to a small integer and never hold more
// entries than the cache has pages.
//
// Each slot is one uint64: the top 32 bits of the key's fixed,
// unseeded Fibonacci hash (its tag) over the value plus one, so an
// all-zero slot is empty. The key itself is not stored. Both owners
// already keep the reverse map from value to key (the FPST's page LBA,
// the DRAM node's LBA), so the table takes it as a function, keyOf,
// and confirms a tag match through it. On a hit that reads the entry
// the caller loads next anyway.
//
// The table uses linear probing, so the same operations always leave
// the same layout, and backward-shift deletion, so deletes leave no
// tombstones and probe chains stay as short under insert/delete churn
// as after a fresh fill. A key's home slot is the top bits of its tag,
// so moving an entry (a resize, a backward shift) needs only the slot
// and never calls keyOf. Its entry bound is fixed at construction: the
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

// MaxBound is the largest entry bound New accepts. Its table has 2^32
// slots, the most a 32-bit tag can pick a home among.
const MaxBound = 1 << 31

// slotBytes is the size of one slot, tag<<32 | val+1, or 0 when empty.
const slotBytes = 8

// Table maps int64 keys to non-negative int32 values, holding at most
// the bound given to New. The zero value is not usable. Not safe for
// concurrent use.
type Table struct {
	// slots holds tag<<32 | val+1 per entry, 0 when empty.
	slots []uint64
	// keyOf returns the key stored with val. The owner keeps it true
	// for every entry from the Put that stores val until the Delete
	// that removes it.
	keyOf func(val int32) int64
	mask  uint64 // len(slots)-1
	shift uint8  // 32 - log2(len(slots)): tag bits kept for the home
	count int
	bound int
	// missKey is the key of the last missed Get and missSlot the empty
	// slot ending its probe chain, or noMiss when nothing is remembered.
	missKey  int64
	missSlot uint64
}

// noMiss is the missSlot of a table that remembers no miss.
const noMiss = ^uint64(0)

// New returns an empty table that holds up to bound entries, with
// keyOf the owner's map from a stored value back to its key. It panics
// if bound is outside 1 to MaxBound.
func New(bound int, keyOf func(val int32) int64) *Table {
	if bound <= 0 || bound > MaxBound {
		panic(fmt.Sprintf("lbaindex: bound %d outside [1, %d]", bound, MaxBound))
	}
	t := &Table{bound: bound, keyOf: keyOf}
	t.resize(min(minSlots, fullSlots(bound)))
	return t
}

// fullSlots is the slot count of a table of the given bound once full.
// Put doubles the array while count > len/2, so it stops at the power
// of two at or above 2*bound.
func fullSlots(bound int) int { return 1 << bits.Len(uint(2*bound-1)) }

// Bytes returns the size of the slot array of a table of the given
// bound once it has grown to hold that many entries, for callers that
// budget memory before building one.
func Bytes(bound int) int64 { return int64(fullSlots(bound)) * slotBytes }

// resize replaces the slot array with n empty slots (n a power of
// two) and reinserts every entry.
func (t *Table) resize(n int) {
	old := t.slots
	t.slots = make([]uint64, n)
	t.missSlot = noMiss
	t.mask = uint64(n - 1)
	t.shift = uint8(32 - bits.TrailingZeros(uint(n)))
	for _, s := range old {
		if s != 0 {
			t.slots[t.vacancy(s>>32)] = s
		}
	}
}

// fibonacci is 2^64 divided by the golden ratio, the multiplier of
// the Fibonacci hash.
const fibonacci = 0x9e3779b97f4a7c15

// tag is the top 32 bits of key's Fibonacci hash, which spread
// consecutive disk pages across the table.
func tag(key int64) uint64 { return uint64(key) * fibonacci >> 32 }

// vacancy returns the first empty slot of the probe chain from the
// home of tag tg, where a key known to be absent goes.
func (t *Table) vacancy(tg uint64) uint64 {
	i := tg >> t.shift
	for t.slots[i] != 0 {
		i = (i + 1) & t.mask
	}
	return i
}

// find returns the slot holding key, or the empty slot ending its
// probe chain. Only a slot carrying key's tag costs a keyOf call.
func (t *Table) find(key int64) uint64 {
	tg := tag(key)
	i := tg >> t.shift
	for s := t.slots[i]; s != 0; s = t.slots[i] {
		if s>>32 == tg && t.keyOf(int32(s)-1) == key {
			break
		}
		i = (i + 1) & t.mask
	}
	return i
}

// Get returns the value stored for key. A miss is remembered, so a
// repeat Get of that key answers without probing. It repeats find's
// loop instead of calling it: with keyOf's indirect call in the loop
// neither can be inlined, and the callers look up on every request.
func (t *Table) Get(key int64) (val int32, ok bool) {
	if key == t.missKey && t.missSlot != noMiss {
		return 0, false
	}
	tg := tag(key)
	i := tg >> t.shift
	for s := t.slots[i]; s != 0; s = t.slots[i] {
		if s>>32 == tg && t.keyOf(int32(s)-1) == key {
			return int32(s) - 1, true
		}
		i = (i + 1) & t.mask
	}
	t.missKey, t.missSlot = key, i
	return 0, false
}

// Put stores val for key, replacing any previous value. It panics if
// val is negative, or if key is new and the table already holds its
// bound of entries: callers size the bound from the cache geometry, so
// overflowing it is a bug. keyOf(val) must return key from now until
// key is deleted.
func (t *Table) Put(key int64, val int32) {
	if val < 0 {
		panic(fmt.Sprintf("lbaindex: negative value %d for key %d", val, key))
	}
	i := t.missSlot
	if key != t.missKey || i == noMiss {
		i = t.find(key)
	}
	t.missSlot = noMiss
	if s := t.slots[i]; s != 0 {
		t.slots[i] = s&^0xffffffff | (uint64(val) + 1)
		return
	}
	if t.count >= t.bound {
		panic(fmt.Sprintf("lbaindex: inserting key %d past the bound of %d entries", key, t.bound))
	}
	tg := tag(key)
	if 2*(t.count+1) > len(t.slots) {
		t.resize(2 * len(t.slots))
		i = t.vacancy(tg)
	}
	t.slots[i] = tg<<32 | (uint64(val) + 1)
	t.count++
}

// Delete removes key if present. The entries after it in its probe
// cluster shift back into the hole whenever that keeps them reachable
// from their home slot, so no tombstone is left behind.
func (t *Table) Delete(key int64) {
	hole := t.find(key)
	if t.slots[hole] == 0 {
		return
	}
	t.count--
	j := (hole + 1) & t.mask
	for ; t.slots[j] != 0; j = (j + 1) & t.mask {
		// The entry at j may fill the hole only if its home does not
		// lie cyclically in (hole, j]: it must stay at or after home.
		if (j-t.slots[j]>>32>>t.shift)&t.mask >= (j-hole)&t.mask {
			t.slots[hole] = t.slots[j]
			hole = j
		}
	}
	t.slots[hole] = 0
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

// Range calls fn for every entry, its key read through keyOf, until fn
// returns false. The order is the slot order: fixed by the sequence of
// operations, but otherwise unspecified. fn must not mutate the table.
func (t *Table) Range(fn func(key int64, val int32) bool) {
	for _, s := range t.slots {
		if s != 0 {
			if val := int32(s) - 1; !fn(t.keyOf(val), val) {
				return
			}
		}
	}
}

// Holds reports whether key's probe chain reaches a slot holding val
// under key's tag: the slot Get(key) finds when keyOf(val) is key. It
// calls no keyOf and remembers no miss, so an audit can check each
// entry's slot against the owner's reverse map without trusting it.
func (t *Table) Holds(key int64, val int32) bool {
	tg := tag(key)
	want := tg<<32 | (uint64(uint32(val)) + 1)
	for i := tg >> t.shift; t.slots[i] != 0; i = (i + 1) & t.mask {
		if t.slots[i] == want {
			return true
		}
	}
	return false
}

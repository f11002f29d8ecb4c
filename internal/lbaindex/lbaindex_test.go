package lbaindex

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// specialKeys are keys with no spare bit pattern: the table must store
// them like any other.
var specialKeys = []int64{-1, math.MinInt64, math.MaxInt64, 0}

// homeOf is key's home slot in t's current array.
func (t *Table) homeOf(key int64) uint64 { return tag(key) >> t.shift }

// valAt returns the value in slot i, which must be occupied.
func (t *Table) valAt(i uint64) int32 { return int32(t.slots[i]) - 1 }

// checkLayout verifies the probing invariant behind Get and Delete:
// every entry carries the tag of the key its value maps back to and
// sits in its home slot or after it, with no empty slot between, and
// the entry count matches the occupied slots.
func checkLayout(t *testing.T, tb *Table) {
	t.Helper()
	n := 0
	for i, s := range tb.slots {
		if s == 0 {
			continue
		}
		n++
		key := tb.keyOf(tb.valAt(uint64(i)))
		if s>>32 != tag(key) {
			t.Fatalf("slot %d carries tag %#x, its key %d has tag %#x", i, s>>32, key, tag(key))
		}
		for j := tb.homeOf(key); j != uint64(i); j = (j + 1) & tb.mask {
			if tb.slots[j] == 0 {
				t.Fatalf("key %d in slot %d is unreachable: slot %d on its probe path is empty", key, i, j)
			}
		}
	}
	if n != tb.count {
		t.Fatalf("%d occupied slots, Len %d", n, tb.count)
	}
	if 2*n > len(tb.slots) {
		t.Fatalf("%d entries in %d slots: load above one half", n, len(tb.slots))
	}
}

// lockstep mirrors a Table with a Go map and compares them after every
// operation. The table's values index keys, the reverse map both
// tables read: every Put stores a fresh index holding its key. twin
// replays every operation with its remembered miss erased first, so it
// always probes: tb's slot layout must equal twin's after every Put and
// Delete, which is what keeps Range order a function of the operation
// sequence alone.
type lockstep struct {
	t        *testing.T
	tb, twin *Table
	keys     []int64
	ref      map[int64]int32
}

func newLockstep(t *testing.T, bound int) *lockstep {
	l := &lockstep{t: t, ref: make(map[int64]int32)}
	keyOf := func(v int32) int64 { return l.keys[v] }
	l.tb, l.twin = New(bound, keyOf), New(bound, keyOf)
	return l
}

// keyAt returns the key of the entry in slot i of tb.
func (l *lockstep) keyAt(i uint64) int64 { return l.keys[l.tb.valAt(i)] }

// put applies Put to both sides under a fresh value; past the bound
// the table must panic and stay unchanged.
func (l *lockstep) put(k int64) {
	l.t.Helper()
	_, exists := l.ref[k]
	l.twin.missSlot = noMiss
	v := int32(len(l.keys))
	l.keys = append(l.keys, k)
	if !exists && len(l.ref) == l.tb.bound {
		if !panics(func() { l.tb.Put(k, v) }) {
			l.t.Fatalf("Put(%d) into a full table of %d did not panic", k, l.tb.bound)
		}
	} else {
		l.tb.Put(k, v)
		l.twin.Put(k, v)
		l.ref[k] = v
	}
	l.sameLayout()
	l.get(k)
}

// del deletes k on every side. It does not Get k afterwards, which
// would replace the remembered miss: a Get, a Delete in the same
// cluster and a Put of the missed key must be able to follow each
// other directly.
func (l *lockstep) del(k int64) {
	l.t.Helper()
	l.tb.Delete(k)
	l.twin.missSlot = noMiss
	l.twin.Delete(k)
	delete(l.ref, k)
	l.sameLayout()
	if l.tb.Len() != len(l.ref) {
		l.t.Fatalf("Len %d after Delete(%d), map has %d", l.tb.Len(), k, len(l.ref))
	}
}

func (l *lockstep) sameLayout() {
	l.t.Helper()
	if !slices.Equal(l.tb.slots, l.twin.slots) {
		l.t.Fatalf("slot layout %x differs from the always-probing twin's %x", l.tb.slots, l.twin.slots)
	}
}

func (l *lockstep) clear() {
	l.t.Helper()
	l.tb.Clear()
	l.twin.Clear()
	l.ref = make(map[int64]int32)
	l.check()
}

func (l *lockstep) get(k int64) {
	l.t.Helper()
	l.twin.missSlot = noMiss
	l.twin.Get(k)
	got, ok := l.tb.Get(k)
	want, wok := l.ref[k]
	if ok != wok || got != want {
		l.t.Fatalf("Get(%d) = %d,%v, map has %d,%v", k, got, ok, want, wok)
	}
	if wok && !l.tb.Holds(k, want) {
		l.t.Fatalf("Holds(%d, %d) = false for a stored entry", k, want)
	}
	if l.tb.Len() != len(l.ref) {
		l.t.Fatalf("Len %d, map has %d", l.tb.Len(), len(l.ref))
	}
}

// check compares every entry both ways through Range and Get.
func (l *lockstep) check() {
	l.t.Helper()
	checkLayout(l.t, l.tb)
	l.sameLayout()
	seen := make(map[int64]bool, len(l.ref))
	l.tb.Range(func(k int64, v int32) bool {
		if seen[k] {
			l.t.Fatalf("Range visited key %d twice", k)
		}
		seen[k] = true
		if want, ok := l.ref[k]; !ok || want != v {
			l.t.Fatalf("Range gave %d -> %d, map has %d,%v", k, v, want, ok)
		}
		return true
	})
	if len(seen) != len(l.ref) {
		l.t.Fatalf("Range visited %d keys, map has %d", len(seen), len(l.ref))
	}
	for k := range l.ref {
		l.get(k)
	}
}

func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

func TestLockstepRandom(t *testing.T) {
	for _, bound := range []int{1, 2, 3, 7, 8, 9, 100, 1000} {
		rng := rand.New(rand.NewSource(int64(bound)))
		l := newLockstep(t, bound)
		// A key space a little larger than the bound keeps the table
		// near full, so inserts past the bound and long clusters occur.
		span := int64(bound + bound/2 + 2)
		key := func() int64 {
			if rng.Intn(16) == 0 {
				return specialKeys[rng.Intn(len(specialKeys))]
			}
			return rng.Int63n(span) - span/2
		}
		for op := 0; op < 20000; op++ {
			switch r := rng.Intn(10); {
			case rng.Intn(1000) == 0:
				l.clear()
			case r < 5:
				l.put(key())
			case r < 8:
				l.del(key())
			default:
				l.get(key())
			}
			if op%997 == 0 {
				l.check()
			}
		}
		l.check()
	}
}

// keysHomedAt returns n distinct keys whose home slot is h in a table
// of the given slot count.
func keysHomedAt(slots int, h uint64, n int) []int64 {
	tb := New(slots/2, nil)
	if len(tb.slots) != slots {
		panic("keysHomedAt: table did not start at the requested size")
	}
	var out []int64
	for k := int64(1); len(out) < n; k++ {
		if tb.homeOf(k) == h {
			out = append(out, k)
		}
	}
	return out
}

// TestDeleteShiftsAcrossWrap builds a probe cluster that starts in the
// last slot and wraps past index 0, then deletes from its head so the
// backward shift moves entries from the front of the array to its end.
func TestDeleteShiftsAcrossWrap(t *testing.T) {
	const slots = 8 // bound 4 starts at its full size
	last := uint64(slots - 1)
	atLast := keysHomedAt(slots, last, 3)
	atZero := keysHomedAt(slots, 0, 1)
	l := newLockstep(t, slots/2)
	if len(l.tb.slots) != slots {
		t.Fatalf("bound %d starts with %d slots, want %d", slots/2, len(l.tb.slots), slots)
	}
	for _, k := range atLast {
		l.put(k)
	}
	l.put(atZero[0])
	// Cluster: slot 7, 0, 1 homed at 7; slot 2 homed at 0.
	for i, want := range []int64{atLast[1], atLast[2], atZero[0]} {
		if got := l.keyAt(uint64(i)); got != want {
			t.Fatalf("slot %d holds %d, want %d", i, got, want)
		}
	}
	l.check()
	l.del(atLast[0])
	// Every entry shifted back one slot, crossing index 0.
	for i, want := range map[uint64]int64{last: atLast[1], 0: atLast[2], 1: atZero[0]} {
		if l.tb.slots[i] == 0 || l.keyAt(i) != want {
			t.Fatalf("after delete slot %d holds %#x, want key %d", i, l.tb.slots[i], want)
		}
	}
	if l.tb.slots[2] != 0 {
		t.Fatal("slot 2 still occupied after the shift")
	}
	l.check()
	// Deleting in the middle of a wrapped cluster shifts the rest.
	l.put(atLast[0])
	l.del(atLast[2])
	l.check()
	for _, k := range append(atLast, atZero...) {
		l.del(k)
	}
	l.check()
	if l.tb.Len() != 0 {
		t.Fatalf("Len %d after deleting every key", l.tb.Len())
	}

	// A hole before a wrapped entry's home must stay a hole: the entry
	// in slot 0 is homed at 7, and moving it to 6 would strand it.
	atSix := keysHomedAt(slots, last-1, 1)
	l.put(atSix[0])
	l.put(atLast[0])
	l.put(atLast[1])
	l.del(atSix[0])
	if l.tb.slots[last-1] != 0 || l.keyAt(last) != atLast[0] || l.keyAt(0) != atLast[1] {
		t.Fatalf("delete before a wrapped cluster moved entries: %x", l.tb.slots)
	}
	l.check()
}

// TestGrowsToBoundExactly fills tables to exactly their bound, checking
// each doubling keeps every entry and that the array stops at the
// power of two at or above twice the bound.
func TestGrowsToBoundExactly(t *testing.T) {
	for _, bound := range []int{1, 2, 5, 8, 9, 31, 32, 33, 1000, 4096} {
		l := newLockstep(t, bound)
		full := 1
		for full < 2*bound {
			full *= 2
		}
		size := len(l.tb.slots)
		if size != min(minSlots, full) {
			t.Fatalf("bound %d starts with %d slots, want %d", bound, size, min(minSlots, full))
		}
		for i := 0; i < bound; i++ {
			k := int64(i)*0x10001 - int64(bound)
			if i < len(specialKeys) {
				k = specialKeys[i]
			}
			l.put(k)
			if n := len(l.tb.slots); n != size {
				if n != 2*size {
					t.Fatalf("bound %d: grew from %d to %d slots", bound, size, n)
				}
				size = n
				l.check() // every entry survives the rehash
			}
		}
		if size != full {
			t.Fatalf("bound %d: full table has %d slots, want %d", bound, size, full)
		}
		l.check()
		// At the bound: replacing works, a new key panics.
		l.put(specialKeys[0])
		l.put(math.MaxInt64 - 1)
		if len(l.tb.slots) != full || l.tb.Len() != bound {
			t.Fatalf("bound %d: %d slots, Len %d after a refused Put", bound, len(l.tb.slots), l.tb.Len())
		}
		// Clear keeps the array and empties it.
		l.clear()
		if len(l.tb.slots) != full {
			t.Fatalf("bound %d: Clear resized the table to %d slots", bound, len(l.tb.slots))
		}
		l.put(-1)
		l.check()
	}
}

func TestNewRejectsNonPositiveBound(t *testing.T) {
	for _, bound := range []int{0, -1} {
		if !panics(func() { New(bound, nil) }) {
			t.Fatalf("New(%d) did not panic", bound)
		}
	}
}

// TestNewRejectsBoundAboveMax: a full table past MaxBound would need
// more homes than a 32-bit tag can pick, so New panics before
// allocating; MaxBound itself starts as small as any table.
func TestNewRejectsBoundAboveMax(t *testing.T) {
	if !panics(func() { New(MaxBound+1, nil) }) {
		t.Fatalf("New(%d) did not panic", MaxBound+1)
	}
	if tb := New(MaxBound, nil); len(tb.slots) != minSlots {
		t.Fatalf("New(MaxBound) starts with %d slots, want %d", len(tb.slots), minSlots)
	}
	if got, want := Bytes(MaxBound), int64(1)<<32*slotBytes; got != want {
		t.Fatalf("Bytes(MaxBound) = %d, want %d", got, want)
	}
}

// TestPutRejectsNegativeValue: a negative value has no val+1 encoding
// that stays clear of the tag, so Put refuses it and leaves the table
// unchanged.
func TestPutRejectsNegativeValue(t *testing.T) {
	tb := New(4, func(int32) int64 { return 7 })
	for _, v := range []int32{-1, math.MinInt32} {
		if !panics(func() { tb.Put(7, v) }) {
			t.Fatalf("Put(7, %d) did not panic", v)
		}
	}
	if tb.Len() != 0 {
		t.Fatalf("Len %d after refused Puts", tb.Len())
	}
}

// TestSlotSize pins the slot at 8 bytes: the tag and the value share
// one word, which is the table's whole memory cost per slot.
func TestSlotSize(t *testing.T) {
	tb := New(1, nil)
	if n := unsafe.Sizeof(tb.slots[0]); n != slotBytes || slotBytes != 8 {
		t.Fatalf("a slot is %d bytes (slotBytes %d), want 8", n, slotBytes)
	}
}

// TestExtremeValues stores the smallest and largest values, whose
// val+1 encodings are 1 and 2^31, under keys that are an affine
// function of the value.
func TestExtremeValues(t *testing.T) {
	keyOf := func(v int32) int64 { return int64(v)*3 - 5 }
	tb := New(4, keyOf)
	vals := []int32{0, 1, math.MaxInt32 - 1, math.MaxInt32}
	for _, v := range vals {
		tb.Put(keyOf(v), v)
	}
	checkLayout(t, tb)
	for _, v := range vals {
		if got, ok := tb.Get(keyOf(v)); !ok || got != v {
			t.Fatalf("Get(%d) = %d,%v, want %d", keyOf(v), got, ok, v)
		}
	}
	for _, v := range vals {
		tb.Delete(keyOf(v))
	}
	if tb.Len() != 0 || slices.ContainsFunc(tb.slots, func(s uint64) bool { return s != 0 }) {
		t.Fatalf("Len %d, slots %x after deleting every value", tb.Len(), tb.slots)
	}
}

// fibonacciInverse is the inverse of fibonacci modulo 2^64: adding it
// to a key adds exactly one to the key's 64-bit hash.
func fibonacciInverse() uint64 {
	inv := uint64(fibonacci) // correct to 3 bits; Newton doubles that
	for i := 0; i < 5; i++ {
		inv *= 2 - fibonacci*inv
	}
	return inv
}

// TestTagCollision stores keys whose hashes differ by one, so they
// share a tag and a home: only keyOf can tell them apart, on every
// Get, Put and Delete.
func TestTagCollision(t *testing.T) {
	if fibonacci*fibonacciInverse() != 1 {
		t.Fatal("fibonacciInverse is not the inverse")
	}
	step := int64(fibonacciInverse())
	for _, base := range []int64{12345, -1, math.MaxInt64} {
		// A run of keys whose hashes are h, h+1, h+2, ...; each shares
		// its predecessor's tag unless the low 32 bits wrap.
		keys := []int64{base}
		for len(keys) < 5 {
			keys = append(keys, keys[len(keys)-1]+step)
		}
		shared := 0
		for i := 1; i < len(keys); i++ {
			if tag(keys[i]) == tag(keys[i-1]) {
				shared++
			}
		}
		if shared == 0 {
			t.Fatalf("base %d: no two keys share a tag", base)
		}
		l := newLockstep(t, 8)
		for _, k := range keys {
			l.put(k)
		}
		l.check()
		// Get of an absent key with the shared tag walks the whole
		// cluster, confirming and rejecting each entry.
		l.get(keys[len(keys)-1] + step)
		l.del(keys[1])
		l.check()
		l.put(keys[1])
		l.put(keys[3]) // a replace: the value changes, the slot stays
		l.del(keys[0])
		l.check()
		for _, k := range keys {
			l.del(k)
		}
		l.check()
	}
}

func TestRangeStopsEarly(t *testing.T) {
	tb := New(10, func(v int32) int64 { return int64(v) })
	for k := int64(0); k < 10; k++ {
		tb.Put(k, int32(k))
	}
	calls := 0
	tb.Range(func(int64, int32) bool { calls++; return calls < 3 })
	if calls != 3 {
		t.Fatalf("Range made %d calls after fn returned false on the third", calls)
	}
}

// FuzzTableLockstep decodes data into a bound and a sequence of
// operations and runs them against the table and a Go map.
func FuzzTableLockstep(f *testing.F) {
	f.Add([]byte{3, 0, 1, 0, 2, 0, 3, 0, 4, 1, 1, 3, 0})
	f.Add([]byte{1, 0, 0x80, 0, 0x81, 1, 0x80, 0, 0x81})
	f.Add([]byte{40, 0, 9, 0, 17, 0, 25, 1, 9, 2, 17, 3, 0})
	f.Add([]byte{5, 0, 1, 0, 2, 2, 3, 4, 0, 2, 3, 0, 3, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		l := newLockstep(t, 1+int(data[0]%64))
		data = data[1:]
		for len(data) >= 2 {
			op, b := data[0], data[1]
			data = data[2:]
			// Low bits pick small keys that collide often; the
			// high values reach the int64 extremes.
			var k int64
			switch {
			case b >= 0xfc:
				k = specialKeys[b-0xfc]
			case b >= 0xe0:
				k = math.MinInt64 + int64(b-0xe0)
			case b >= 0xc0:
				k = math.MaxInt64 - int64(b-0xc0)
			default:
				k = int64(b) - 96
			}
			switch op % 5 {
			case 0:
				l.put(k)
			case 1:
				l.del(k)
			case 2:
				l.get(k)
			case 3:
				l.check()
			default:
				l.clear()
			}
		}
		l.check()
	})
}

// TestRememberedMissSlot walks the remembered miss through the events
// that keep and forget it, on a 16-slot table with two probe clusters.
func TestRememberedMissSlot(t *testing.T) {
	const slots = 16
	atTwo := keysHomedAt(slots, 2, 3)
	atNine := keysHomedAt(slots, 9, 2)
	l := newLockstep(t, slots/2)
	l.put(atTwo[0])  // slot 2
	l.put(atTwo[1])  // slot 3
	l.put(atNine[0]) // slot 9
	l.put(atNine[1]) // slot 10
	remembers := func(key int64, slot uint64) {
		t.Helper()
		if l.tb.missKey != key || l.tb.missSlot != slot {
			t.Fatalf("remembers key %d at slot %d, want key %d at slot %d",
				l.tb.missKey, l.tb.missSlot, key, slot)
		}
	}
	forgot := func() {
		t.Helper()
		if l.tb.missSlot != noMiss {
			t.Fatalf("still remembers key %d at slot %d", l.tb.missKey, l.tb.missSlot)
		}
	}

	// A missed Get remembers the empty slot ending its chain, and a
	// Put of that key lands there.
	l.get(atTwo[2])
	remembers(atTwo[2], 4)
	l.put(atTwo[2])
	if l.tb.slots[4] == 0 || l.keyAt(4) != atTwo[2] {
		t.Fatalf("Put after the miss left slot 4 as %#x", l.tb.slots[4])
	}
	forgot()
	l.check()

	// A Delete in the other cluster keeps the remembered slot.
	l.del(atTwo[2])
	l.get(atTwo[2])
	remembers(atTwo[2], 4)
	l.del(atNine[0]) // shifts atNine[1] back into slot 9
	remembers(atTwo[2], 4)
	l.check()

	// A Delete in the same cluster forgets it: the shift moves
	// atTwo[1] into slot 2, and slot 3 now ends atTwo[2]'s chain.
	l.del(atTwo[0])
	forgot()
	l.put(atTwo[2])
	if l.tb.slots[3] == 0 || l.keyAt(3) != atTwo[2] {
		t.Fatalf("Put after a same-cluster Delete left slot 3 as %#x", l.tb.slots[3])
	}
	l.check()

	// A resize forgets it.
	l.get(atTwo[0])
	remembers(atTwo[0], 4)
	l.tb.resize(2 * slots)
	l.twin.resize(2 * slots)
	forgot()
	l.check()

	// So does Clear.
	l.get(atTwo[0])
	l.clear()
	forgot()
}

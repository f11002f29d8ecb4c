package lbaindex

import (
	"math"
	"math/rand"
	"testing"
)

// specialKeys are keys with no spare bit pattern: the table must store
// them like any other.
var specialKeys = []int64{-1, math.MinInt64, math.MaxInt64, 0}

// checkLayout verifies the probing invariant behind Get and Delete:
// every entry sits in its home slot or after it, with no empty slot
// between, and the entry count matches the occupied slots.
func checkLayout(t *testing.T, tb *Table) {
	t.Helper()
	n := 0
	for i := range tb.slots {
		s := &tb.slots[i]
		if !s.full {
			continue
		}
		n++
		for j := tb.home(s.key); j != uint64(i); j = (j + 1) & tb.mask {
			if !tb.slots[j].full {
				t.Fatalf("key %d in slot %d is unreachable: slot %d on its probe path is empty", s.key, i, j)
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
// operation.
type lockstep struct {
	t   *testing.T
	tb  *Table
	ref map[int64]int32
}

func newLockstep(t *testing.T, bound int) *lockstep {
	return &lockstep{t: t, tb: New(bound), ref: make(map[int64]int32)}
}

// put applies Put to both sides; past the bound the table must panic
// and stay unchanged.
func (l *lockstep) put(k int64, v int32) {
	l.t.Helper()
	_, exists := l.ref[k]
	if !exists && len(l.ref) == l.tb.bound {
		if !panics(func() { l.tb.Put(k, v) }) {
			l.t.Fatalf("Put(%d) into a full table of %d did not panic", k, l.tb.bound)
		}
	} else {
		l.tb.Put(k, v)
		l.ref[k] = v
	}
	l.get(k)
}

func (l *lockstep) del(k int64) {
	l.t.Helper()
	l.tb.Delete(k)
	delete(l.ref, k)
	l.get(k)
}

func (l *lockstep) get(k int64) {
	l.t.Helper()
	got, ok := l.tb.Get(k)
	want, wok := l.ref[k]
	if ok != wok || got != want {
		l.t.Fatalf("Get(%d) = %d,%v, map has %d,%v", k, got, ok, want, wok)
	}
	if l.tb.Len() != len(l.ref) {
		l.t.Fatalf("Len %d, map has %d", l.tb.Len(), len(l.ref))
	}
}

// check compares every entry both ways through Range and Get.
func (l *lockstep) check() {
	l.t.Helper()
	checkLayout(l.t, l.tb)
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
			case r < 5:
				l.put(key(), rng.Int31()-math.MaxInt32/2)
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
	tb := New(slots / 2)
	if len(tb.slots) != slots {
		panic("keysHomedAt: table did not start at the requested size")
	}
	var out []int64
	for k := int64(1); len(out) < n; k++ {
		if tb.home(k) == h {
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
	for i, k := range atLast {
		l.put(k, int32(i))
	}
	l.put(atZero[0], 99)
	// Cluster: slot 7, 0, 1 homed at 7; slot 2 homed at 0.
	for i, want := range []int64{atLast[1], atLast[2], atZero[0]} {
		if got := l.tb.slots[i].key; got != want {
			t.Fatalf("slot %d holds %d, want %d", i, got, want)
		}
	}
	l.check()
	l.del(atLast[0])
	// Every entry shifted back one slot, crossing index 0.
	for i, want := range map[uint64]int64{last: atLast[1], 0: atLast[2], 1: atZero[0]} {
		if got := l.tb.slots[i]; !got.full || got.key != want {
			t.Fatalf("after delete slot %d holds %+v, want key %d", i, got, want)
		}
	}
	if l.tb.slots[2].full {
		t.Fatal("slot 2 still occupied after the shift")
	}
	l.check()
	// Deleting in the middle of a wrapped cluster shifts the rest.
	l.put(atLast[0], 7)
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
	l.put(atSix[0], 6)
	l.put(atLast[0], 7)
	l.put(atLast[1], 8)
	l.del(atSix[0])
	if l.tb.slots[last-1].full || l.tb.slots[last].key != atLast[0] || l.tb.slots[0].key != atLast[1] {
		t.Fatalf("delete before a wrapped cluster moved entries: %+v", l.tb.slots)
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
			l.put(k, int32(i))
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
		l.put(specialKeys[0], -5)
		l.put(math.MaxInt64-1, 1)
		if len(l.tb.slots) != full || l.tb.Len() != bound {
			t.Fatalf("bound %d: %d slots, Len %d after a refused Put", bound, len(l.tb.slots), l.tb.Len())
		}
		// Clear keeps the array and empties it.
		l.tb.Clear()
		l.ref = make(map[int64]int32)
		if len(l.tb.slots) != full {
			t.Fatalf("bound %d: Clear resized the table to %d slots", bound, len(l.tb.slots))
		}
		l.check()
		l.put(-1, 3)
		l.check()
	}
}

func TestNewRejectsNonPositiveBound(t *testing.T) {
	for _, bound := range []int{0, -1} {
		if !panics(func() { New(bound) }) {
			t.Fatalf("New(%d) did not panic", bound)
		}
	}
}

func TestRangeStopsEarly(t *testing.T) {
	tb := New(10)
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
			switch op % 4 {
			case 0:
				l.put(k, int32(op)<<8|int32(b))
			case 1:
				l.del(k)
			case 2:
				l.get(k)
			default:
				l.check()
			}
		}
		l.check()
	})
}

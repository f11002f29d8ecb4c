package tables

import (
	"testing"
	"testing/quick"
	"unsafe"

	"flashdc/internal/nand"
	"flashdc/internal/sim"
	"flashdc/internal/wear"
)

// newFCHT builds a table for a device of the given block count over a
// fresh FPST, its reverse map.
func newFCHT(t *testing.T, blocks int) *FCHT {
	t.Helper()
	fpst, err := NewFPST(blocks, 1, wear.MLC, 8)
	if err != nil {
		t.Fatal(err)
	}
	return NewFCHT(fpst)
}

// put maps lba to a the way the controller does: the FPST entry names
// lba before the FCHT maps it, and a page it replaces gives the LBA up
// only after the table no longer needs it to find the mapping.
func put(f *FCHT, lba int64, a nand.Addr) {
	old, replaced := f.Get(lba)
	f.fpst.At(a).LBA = lba
	f.Put(lba, a)
	if replaced && old != a {
		f.fpst.At(old).LBA = InvalidLBA
	}
}

func TestFCHTBasics(t *testing.T) {
	f := newFCHT(t, 64)
	if _, ok := f.Get(42); ok {
		t.Fatal("empty table reported a hit")
	}
	a := nand.PageAddr(1, 2, 1)
	put(f, 42, a)
	got, ok := f.Get(42)
	if !ok || got != a {
		t.Fatalf("Get = %v,%v", got, ok)
	}
	if f.Len() != 1 {
		t.Fatalf("Len = %d", f.Len())
	}
	b := nand.PageAddr(9, 0, 0)
	put(f, 42, b)
	if got, _ := f.Get(42); got != b {
		t.Fatal("Put did not replace")
	}
	f.Delete(42)
	if _, ok := f.Get(42); ok || f.Len() != 0 {
		t.Fatal("Delete did not remove")
	}
	f.Delete(42) // deleting absent key is a no-op
}

func TestFCHTProperty(t *testing.T) {
	f := newFCHT(t, 64)
	check := func(lbas []int64) bool {
		for i, lba := range lbas {
			put(f, lba, nand.PageAddr(i, 0, 0))
		}
		for i := len(lbas) - 1; i >= 0; i-- {
			a, ok := f.Get(lbas[i])
			if !ok {
				return false
			}
			// Later duplicate Put wins.
			last := i
			for j := i + 1; j < len(lbas); j++ {
				if lbas[j] == lbas[i] {
					last = j
				}
			}
			if a.Block() != last {
				return false
			}
		}
		for _, lba := range lbas {
			f.Delete(lba)
		}
		return f.Len() == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestFCHTPacksEveryAddress maps a distinct LBA to every Flash page of
// a device and checks that Get, Range and Delete hand back exactly the
// address stored, so the table's int32 values lose no Block, Slot or
// Sub bit.
func TestFCHTPacksEveryAddress(t *testing.T) {
	for _, blocks := range []int{1, 37, 1024} {
		f := newFCHT(t, blocks)
		want := make(map[int64]nand.Addr)
		lba := int64(-3) // negative disk pages must work too
		for b := 0; b < blocks; b++ {
			for s := 0; s < nand.SlotsPerBlock; s++ {
				for sub := 0; sub < 2; sub++ {
					a := nand.PageAddr(b, s, sub)
					put(f, lba, a)
					want[lba] = a
					lba += 7919
				}
			}
		}
		if f.Len() != len(want) || f.Len() != blocks*nand.SlotsPerBlock*2 {
			t.Fatalf("blocks %d: Len %d, want %d", blocks, f.Len(), len(want))
		}
		for l, a := range want {
			if got, ok := f.Get(l); !ok || got != a {
				t.Fatalf("blocks %d: Get(%d) = %v,%v, want %v", blocks, l, got, ok, a)
			}
		}
		seen := 0
		f.Range(func(l int64, a nand.Addr) bool {
			if want[l] != a {
				t.Fatalf("blocks %d: Range gave %d -> %v, want %v", blocks, l, a, want[l])
			}
			seen++
			return true
		})
		if seen != len(want) {
			t.Fatalf("blocks %d: Range visited %d of %d", blocks, seen, len(want))
		}
		for l := range want {
			f.Delete(l)
		}
		if f.Len() != 0 {
			t.Fatalf("blocks %d: %d mappings left after deleting all", blocks, f.Len())
		}
	}
}

// TestFPSTRejectsUnpackableGeometry checks the construction-time
// bound: every block must be one a nand.Addr can name, and the FCHT
// built over the FPST inherits it.
func TestFPSTRejectsUnpackableGeometry(t *testing.T) {
	for _, blocks := range []int{0, -1, nand.MaxBlocks + 1} {
		if _, err := NewFPST(blocks, 1, wear.MLC, 8); err == nil {
			t.Fatalf("NewFPST(%d) accepted", blocks)
		}
	}
}

// TestFCHTPutRejectsForeignAddress: a page past the FPST's device has
// no reverse-map entry, so mapping it is a bug caught at Put.
func TestFCHTPutRejectsForeignAddress(t *testing.T) {
	f := newFCHT(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Put of a page past the device did not panic")
		}
	}()
	f.Put(5, nand.PageAddr(2, 0, 0))
}

// TestFCHTReadsLBAsFromFPST: the table keeps no LBA of its own, so a
// lookup, a Range and Holds all answer from the FPST entry of the
// mapped page, and a forged FPST LBA unmaps the page for Get and
// shows up in Holds.
func TestFCHTReadsLBAsFromFPST(t *testing.T) {
	f := newFCHT(t, 4)
	a := nand.PageAddr(3, 7, 1)
	put(f, 1000, a)
	if !f.Holds(1000, a) || f.Holds(1001, a) {
		t.Fatal("Holds does not match the stored mapping")
	}
	f.fpst.At(a).LBA = 1001 // forged behind the table's back
	if _, ok := f.Get(1000); ok {
		t.Fatal("Get found lba 1000 though its page now names 1001")
	}
	f.Range(func(lba int64, got nand.Addr) bool {
		if lba != 1001 || got != a {
			t.Fatalf("Range gave %d -> %v, want the FPST's 1001 -> %v", lba, got, a)
		}
		return true
	})
	if f.Holds(1001, a) || !f.Holds(1000, a) {
		t.Fatal("Holds trusted the forged FPST LBA")
	}
}

func TestFPSTInitialState(t *testing.T) {
	f, err := NewFPST(4, 1, wear.MLC, 8)
	if err != nil {
		t.Fatal(err)
	}
	st := f.At(nand.PageAddr(3, 63, 1))
	if st.Strength != 1 || st.StagedStrength != 1 || st.Valid || st.LBA != InvalidLBA {
		t.Fatalf("initial entry %+v", st)
	}
	if slot := f.Slot(nand.PageAddr(3, 63, 1)); slot.StagedMode != wear.MLC || &slot.Pages[1] != st {
		t.Fatalf("initial slot %+v does not hold the page entry at staged MLC", slot)
	}
	if f.Saturate() != 8 {
		t.Fatalf("Saturate = %d", f.Saturate())
	}
}

// TestSlotStatusSize pins the FPST's per-slot footprint: two 32-byte
// page entries, whose 4-byte strengths share one word, and the staged
// density in the padding after them, so a slot's status is 72 bytes.
func TestSlotStatusSize(t *testing.T) {
	if n := unsafe.Sizeof(PageStatus{}); n != 32 {
		t.Fatalf("PageStatus is %d bytes, want 32", n)
	}
	if n := unsafe.Sizeof(SlotStatus{}); n != 72 {
		t.Fatalf("SlotStatus is %d bytes, want 72", n)
	}
}

func TestFPSTPointerStability(t *testing.T) {
	f, err := NewFPST(2, 1, wear.SLC, 4)
	if err != nil {
		t.Fatal(err)
	}
	a := nand.PageAddr(1, 5, 0)
	f.At(a).Valid = true
	f.At(a).LBA = 77
	if st := f.At(a); !st.Valid || st.LBA != 77 {
		t.Fatal("mutations through At lost")
	}
}

func TestFPSTIncAccessSaturates(t *testing.T) {
	f, err := NewFPST(1, 1, wear.MLC, 3)
	if err != nil {
		t.Fatal(err)
	}
	a := nand.PageAddr(0, 0, 0)
	for i := 1; i <= 2; i++ {
		if f.IncAccess(a) {
			t.Fatalf("saturated early at %d", i)
		}
	}
	if !f.IncAccess(a) {
		t.Fatal("did not report saturation on 3rd access")
	}
	if f.IncAccess(a) {
		t.Fatal("reported saturation twice")
	}
	if f.At(a).Access != 3 {
		t.Fatalf("counter overflowed: %d", f.At(a).Access)
	}
}

func TestFPSTConstructorRejects(t *testing.T) {
	for _, tc := range []struct {
		name   string
		blocks int
		sat    uint32
	}{
		{"zero blocks", 0, 4},
		{"zero saturation", 1, 0},
	} {
		if f, err := NewFPST(tc.blocks, 1, wear.SLC, tc.sat); err == nil || f != nil {
			t.Fatalf("%s: want error, got (%v, %v)", tc.name, f, err)
		}
	}
}

func TestFBSTWearOutFormula(t *testing.T) {
	f, err := NewFBST(3, 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	st := f.At(1)
	st.TotalECC = 30
	st.TotalSLC = 4
	// wear = 100 + 2*30 + 20*4 = 240
	if got := f.WearOut(1, 100); got != 240 {
		t.Fatalf("WearOut = %v, want 240", got)
	}
	if f.WearOut(0, 0) != 0 {
		t.Fatal("fresh block has non-zero wear")
	}
	if f.Blocks() != 3 {
		t.Fatalf("Blocks = %d", f.Blocks())
	}
}

func TestFBSTConstructorRejects(t *testing.T) {
	for _, tc := range []struct {
		name   string
		blocks int
		k1, k2 float64
	}{
		{"zero blocks", 0, 1, 2},
		{"zero K1", 1, 0, 2},
		{"K2 not above K1", 1, 3, 2},
	} {
		if f, err := NewFBST(tc.blocks, tc.k1, tc.k2); err == nil || f != nil {
			t.Fatalf("%s: want error, got (%v, %v)", tc.name, f, err)
		}
	}
}

func TestFGSTAverages(t *testing.T) {
	var g FGST
	if g.MissRate() != 0 {
		t.Fatal("miss rate before any access")
	}
	if g.AvgHitLatency(7) != 7 {
		t.Fatal("defaults not honoured")
	}
	g.RecordHit(100 * sim.Microsecond)
	g.RecordHit(300 * sim.Microsecond)
	g.RecordMiss()
	if g.MissRate() != 1.0/3 {
		t.Fatalf("miss rate %v", g.MissRate())
	}
	if g.AvgHitLatency(0) != 200*sim.Microsecond {
		t.Fatalf("avg hit %v", g.AvgHitLatency(0))
	}
}

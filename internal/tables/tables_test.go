package tables

import (
	"testing"
	"testing/quick"
	"unsafe"

	"flashdc/internal/nand"
	"flashdc/internal/sim"
	"flashdc/internal/wear"
)

// newFCHT builds a table for a 64-block device.
func newFCHT(t *testing.T) *FCHT {
	t.Helper()
	f, err := NewFCHT(64)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFCHTBasics(t *testing.T) {
	f := newFCHT(t)
	if _, ok := f.Get(42); ok {
		t.Fatal("empty table reported a hit")
	}
	a := nand.Addr{Block: 1, Slot: 2, Sub: 1}
	f.Put(42, a)
	got, ok := f.Get(42)
	if !ok || got != a {
		t.Fatalf("Get = %v,%v", got, ok)
	}
	if f.Len() != 1 {
		t.Fatalf("Len = %d", f.Len())
	}
	b := nand.Addr{Block: 9}
	f.Put(42, b)
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
	f := newFCHT(t)
	check := func(lbas []int64) bool {
		for i, lba := range lbas {
			f.Put(lba, nand.Addr{Block: i})
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
			if a.Block != last {
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
// address stored, so the int32 packing loses no Block, Slot or Sub bit.
func TestFCHTPacksEveryAddress(t *testing.T) {
	for _, blocks := range []int{1, 37, 1024} {
		f, err := NewFCHT(blocks)
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[int64]nand.Addr)
		lba := int64(-3) // negative disk pages must work too
		for b := 0; b < blocks; b++ {
			for s := 0; s < nand.SlotsPerBlock; s++ {
				for sub := 0; sub < 2; sub++ {
					a := nand.Addr{Block: b, Slot: s, Sub: sub}
					if got := unpackAddr(packAddr(a)); got != a {
						t.Fatalf("blocks %d: %v packs to %d, unpacks to %v", blocks, a, packAddr(a), got)
					}
					f.Put(lba, a)
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

// TestFCHTRejectsUnpackableGeometry checks the construction-time
// bound: the block number must fit the 24 bits above Slot and Sub.
func TestFCHTRejectsUnpackableGeometry(t *testing.T) {
	for _, blocks := range []int{0, -1, fchtMaxBlocks + 1} {
		if _, err := NewFCHT(blocks); err == nil {
			t.Fatalf("NewFCHT(%d) accepted", blocks)
		}
	}
	top := nand.Addr{Block: fchtMaxBlocks - 1, Slot: nand.SlotsPerBlock - 1, Sub: 1}
	if got := unpackAddr(packAddr(top)); got != top {
		t.Fatalf("largest address %v unpacks to %v", top, got)
	}
}

func TestFPSTInitialState(t *testing.T) {
	f, err := NewFPST(4, 1, wear.MLC, 8)
	if err != nil {
		t.Fatal(err)
	}
	st := f.At(nand.Addr{Block: 3, Slot: 63, Sub: 1})
	if st.Strength != 1 || st.StagedStrength != 1 || st.Valid || st.LBA != InvalidLBA {
		t.Fatalf("initial entry %+v", st)
	}
	if slot := f.Slot(3, 63); slot.StagedMode != wear.MLC || &slot.Pages[1] != st {
		t.Fatalf("initial slot %+v does not hold the page entry at staged MLC", slot)
	}
	if f.Saturate() != 8 {
		t.Fatalf("Saturate = %d", f.Saturate())
	}
}

// TestSlotStatusSize pins the FPST's per-slot footprint: the staged
// density stored once per slot must fit in the padding of the two page
// entries, so a slot's status stays within 96 bytes.
func TestSlotStatusSize(t *testing.T) {
	if n := unsafe.Sizeof(SlotStatus{}); n > 96 {
		t.Fatalf("SlotStatus is %d bytes, want at most 96", n)
	}
}

func TestFPSTPointerStability(t *testing.T) {
	f, err := NewFPST(2, 1, wear.SLC, 4)
	if err != nil {
		t.Fatal(err)
	}
	a := nand.Addr{Block: 1, Slot: 5}
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
	a := nand.Addr{}
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

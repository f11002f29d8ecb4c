package core

import (
	"testing"

	"flashdc/internal/nand"
	"flashdc/internal/wear"
)

// FuzzCheckpointRegions edits a real checkpoint — duplicating, moving
// and swapping blocks within and across every region's Free, LRU and
// Open lists, writing out-of-range block numbers, and rewriting the
// device's retirement flags, slot densities and erase counts — and
// asserts restore's contract: it returns an error or builds a cache
// that passes the integrity audit and then serves a mixed workload,
// never panicking or hanging. The metadata image's CRC envelope keeps
// FuzzLoadMetadata from reaching these states.
func FuzzCheckpointRegions(f *testing.F) {
	cfg := DefaultConfig(2 * testMB)
	cfg.Seed = 97
	c := New(cfg)
	// Short enough that the read region still has free blocks, so
	// every kind of list starts non-empty.
	driveMixed(c, 3, 1000, 1500, 0.3)
	ck, err := c.Checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	blocks := len(ck.Blocks)

	// Each edit is three bytes: an operation, a source and a target.
	// A list edit's source indexes every listed block and its target
	// picks a list and position; lists are numbered region by region:
	// Free, LRU, Open. A device edit's source and target pick a block
	// (and slot) and the value written.
	const (
		opDuplicate = iota
		opMove
		opSwap
		opOutOfRange
		opRetire
		opSlotMode
		opEraseCount
		numOps
	)
	f.Add([]byte{})
	f.Add([]byte{opDuplicate, 0, 1})
	f.Add([]byte{opMove, 2, 3})
	f.Add([]byte{opSwap, 1, 4})
	f.Add([]byte{opOutOfRange, 0, 200})
	f.Add([]byte{opDuplicate, 5, 2, opMove, 1, 7})
	f.Add([]byte{opSlotMode, 3, 9, opEraseCount, 2, 250})
	// A device that retires every free block: the first allocation
	// from one would program a retired block.
	var retireFree []byte
	for _, cr := range ck.Regions {
		for _, b := range cr.Free {
			retireFree = append(retireFree, opRetire, byte(b), 0)
		}
	}
	if len(retireFree) == 0 {
		f.Fatal("checkpoint has no free block")
	}
	f.Add(retireFree)

	f.Fuzz(func(t *testing.T, edits []byte) {
		if len(edits) > 3*32 {
			return
		}
		dev := ck.Device
		dev.Blocks = make([]nand.BlockCheckpoint, len(ck.Device.Blocks))
		for b, db := range ck.Device.Blocks {
			db.Slots = append([]nand.SlotCheckpoint(nil), db.Slots...)
			dev.Blocks[b] = db
		}
		edited := withRegions(ck, func(rs []CheckpointRegion) {
			lists := make([][]int, 0, 3*len(rs))
			for _, cr := range rs {
				var open []int
				if cr.Open != none {
					open = []int{cr.Open}
				}
				lists = append(lists, cr.Free, cr.LRU, open)
			}
			for i := 0; i+2 < len(edits); i += 3 {
				op, src, dst := edits[i]%numOps, int(edits[i+1]), int(edits[i+2])
				switch op {
				case opRetire:
					db := &dev.Blocks[src%blocks]
					db.Retired = !db.Retired
					continue
				case opSlotMode:
					// dst picks the block and, above the block count,
					// the density: SLC, MLC or out of range.
					dev.Blocks[dst%blocks].Slots[src%nand.SlotsPerBlock].Mode = wear.Mode(dst / blocks)
					continue
				case opEraseCount:
					dev.Blocks[src%blocks].EraseCount = dst
					continue
				}
				total := 0
				for _, l := range lists {
					total += len(l)
				}
				if total == 0 {
					break
				}
				// Locate the source element.
				src %= total
				sl := 0
				for src >= len(lists[sl]) {
					src -= len(lists[sl])
					sl++
				}
				b := lists[sl][src]
				dl := dst % len(lists)
				pos := dst / len(lists) % (len(lists[dl]) + 1)
				switch op {
				case opMove:
					lists[sl] = append(lists[sl][:src:src], lists[sl][src+1:]...)
					if sl == dl && pos > len(lists[dl]) {
						pos = len(lists[dl])
					}
					fallthrough
				case opDuplicate:
					l := append(lists[dl][:pos:pos], b)
					lists[dl] = append(l, lists[dl][pos:]...)
				case opSwap:
					j := dst % len(lists[sl])
					lists[sl][src], lists[sl][j] = lists[sl][j], lists[sl][src]
				case opOutOfRange:
					lists[sl][src] = dst%(blocks+16) - 8
				}
			}
			for i := range rs {
				rs[i].Free, rs[i].LRU, rs[i].Open = lists[3*i], lists[3*i+1], none
				if open := lists[3*i+2]; len(open) > 0 {
					rs[i].Open = open[0]
				}
			}
		})
		edited.Device = dev
		got := New(cfg)
		if err := got.Restore(edited); err != nil {
			return
		}
		if err := got.CheckIntegrity(); err != nil {
			t.Fatalf("accepted checkpoint built an inconsistent cache: %v", err)
		}
		driveMixed(got, 11, 2000, 1500, 0.3)
		if err := got.CheckIntegrity(); err != nil {
			t.Fatalf("accepted checkpoint drove into an inconsistent cache: %v", err)
		}
	})
}

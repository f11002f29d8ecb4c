package core

import (
	"testing"
)

// FuzzCheckpointRegions edits the region lists of a real checkpoint —
// duplicating, moving and swapping blocks within and across every
// region's Free, LRU and Open lists, and writing out-of-range block
// numbers — and asserts restore's contract: it returns an error or
// builds a cache that passes the integrity audit, and never panics or
// hangs. The metadata image's CRC envelope keeps FuzzLoadMetadata from
// reaching these states.
func FuzzCheckpointRegions(f *testing.F) {
	cfg := DefaultConfig(2 * testMB)
	cfg.Seed = 97
	c := New(cfg)
	driveMixed(c, 3, 3000, 1500, 0.3)
	ck, err := c.Checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	blocks := len(ck.Blocks)

	// Each edit is three bytes: an operation, a source element (an
	// index over every listed block) and a target list and position.
	// Lists are numbered region by region: Free, LRU, Open.
	const (
		opDuplicate = iota
		opMove
		opSwap
		opOutOfRange
		numOps
	)
	f.Add([]byte{})
	f.Add([]byte{opDuplicate, 0, 1})
	f.Add([]byte{opMove, 2, 3})
	f.Add([]byte{opSwap, 1, 4})
	f.Add([]byte{opOutOfRange, 0, 200})
	f.Add([]byte{opDuplicate, 5, 2, opMove, 1, 7})

	f.Fuzz(func(t *testing.T, edits []byte) {
		if len(edits) > 3*32 {
			return
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
		got := New(cfg)
		if err := got.Restore(edited); err != nil {
			return
		}
		if err := got.CheckIntegrity(); err != nil {
			t.Fatalf("accepted region lists built an inconsistent cache: %v", err)
		}
	})
}

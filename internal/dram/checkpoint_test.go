package dram

import (
	"reflect"
	"testing"
)

// TestCheckpointRestoreRoundTrip: a restored cache reproduces the
// original's recency order exactly — the next eviction on both caches
// picks the same victim — plus dirty bits and statistics.
func TestCheckpointRestoreRoundTrip(t *testing.T) {
	c := NewCache(4 * PageSize)
	c.Write(1)
	c.Fill(2)
	c.Write(3)
	c.Fill(4)
	c.Read(1) // promote 1; LRU order is now 2 < 3 < 4 < 1 (MRU)

	pages := c.Checkpoint()
	if len(pages) != 4 {
		t.Fatalf("checkpoint holds %d pages, want 4", len(pages))
	}

	r := NewCache(4 * PageSize)
	if err := r.Restore(pages, c.Stats()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Checkpoint(), pages) {
		t.Fatalf("re-checkpoint diverges:\n got %+v\nwant %+v", r.Checkpoint(), pages)
	}
	if !reflect.DeepEqual(r.Stats(), c.Stats()) {
		t.Fatal("restored stats diverge")
	}
	for _, lba := range []int64{1, 3} {
		if !r.Dirty(lba) {
			t.Fatalf("page %d lost its dirty bit", lba)
		}
	}
	if r.Dirty(2) || r.Dirty(4) {
		t.Fatal("clean page restored dirty")
	}

	// Identical continuation: both caches evict the same victim.
	_, evC, okC := c.Fill(99)
	_, evR, okR := r.Fill(99)
	if !okC || !okR || evC != evR {
		t.Fatalf("eviction diverges: original %+v(%v), restored %+v(%v)", evC, okC, evR, okR)
	}
}

// TestRestoreRejectsBadState: oversized and duplicate-LBA checkpoints
// are refused.
func TestRestoreRejectsBadState(t *testing.T) {
	r := NewCache(2 * PageSize)
	three := []PageState{{LBA: 1}, {LBA: 2}, {LBA: 3}}
	if err := r.Restore(three, Stats{}); err == nil {
		t.Fatal("restore of 3 pages into a 2-page cache succeeded")
	}
	dup := []PageState{{LBA: 7}, {LBA: 7}}
	if err := r.Restore(dup, Stats{}); err == nil {
		t.Fatal("restore with a duplicated LBA succeeded")
	}
	// A failed restore must leave the cache usable.
	if err := r.Restore([]PageState{{LBA: 1, Dirty: true}}, Stats{}); err != nil {
		t.Fatal(err)
	}
	if hit, _ := r.Read(1); !hit {
		t.Fatal("cache unusable after rejected restores")
	}
}

// TestRestoreReplacesContents restores into a cache that already holds
// other pages: they must be gone from the index, and second-chance
// reference bits must land on the pages they belong to.
func TestRestoreReplacesContents(t *testing.T) {
	src := NewCacheWithPolicy(4*PageSize, SecondChance)
	for lba := int64(10); lba < 14; lba++ {
		src.Fill(lba)
	}
	src.Read(10) // only page 10 carries its reference bit
	src.Read(12)
	pages := src.Checkpoint()

	r := NewCacheWithPolicy(4*PageSize, SecondChance)
	for lba := int64(-3); lba < 1; lba++ {
		r.Write(lba)
	}
	if err := r.Restore(pages, src.Stats()); err != nil {
		t.Fatal(err)
	}
	for lba := int64(-3); lba < 1; lba++ {
		if _, ok := r.index.Get(lba); ok {
			t.Fatalf("page %d from before the restore is still indexed", lba)
		}
	}
	if r.index.Len() != len(pages) {
		t.Fatalf("index holds %d pages after restoring %d", r.index.Len(), len(pages))
	}
	if !reflect.DeepEqual(r.Checkpoint(), pages) {
		t.Fatalf("restored state diverges:\n got %+v\nwant %+v", r.Checkpoint(), pages)
	}
	for lba := int64(100); lba < 104; lba++ {
		_, evS, _ := src.Fill(lba)
		_, evR, _ := r.Fill(lba)
		if evS != evR {
			t.Fatalf("fill %d: original evicts %+v, restored %+v", lba, evS, evR)
		}
	}
	if r.Len() != 4 {
		t.Fatalf("restored cache holds %d pages, want 4", r.Len())
	}
}

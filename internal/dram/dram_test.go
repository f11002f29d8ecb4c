package dram

import (
	"testing"
	"testing/quick"

	"flashdc/internal/sim"
)

func TestNewCachePanicsTooSmall(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("tiny cache did not panic")
		}
	}()
	NewCache(PageSize - 1)
}

func TestReadMissThenFill(t *testing.T) {
	c := NewCache(4 * PageSize)
	if hit, lat := c.Read(10); hit || lat != 0 {
		t.Fatal("cold read hit")
	}
	if lat, _, evicted := c.Fill(10); lat != AccessLatency || evicted {
		t.Fatalf("fill: %v evicted=%v", lat, evicted)
	}
	if hit, lat := c.Read(10); !hit || lat != AccessLatency {
		t.Fatal("filled page missed")
	}
	if c.Dirty(10) {
		t.Fatal("fill marked page dirty")
	}
}

func TestWriteMarksDirty(t *testing.T) {
	c := NewCache(4 * PageSize)
	c.Write(5)
	if !c.Dirty(5) {
		t.Fatal("write did not mark dirty")
	}
	c.Clean(5)
	if c.Dirty(5) {
		t.Fatal("Clean did not clear dirty")
	}
	// Write to an existing clean page re-dirties it.
	c.Write(5)
	if !c.Dirty(5) {
		t.Fatal("re-write did not dirty")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := NewCache(3 * PageSize)
	c.Fill(1)
	c.Fill(2)
	c.Fill(3)
	c.Read(1) // 1 becomes MRU; 2 is LRU
	_, ev, evicted := c.Fill(4)
	if !evicted || ev.LBA != 2 {
		t.Fatalf("evicted %v %+v, want LBA 2", evicted, ev)
	}
	if ev.Dirty {
		t.Fatal("clean page evicted dirty")
	}
}

func TestEvictionReportsDirty(t *testing.T) {
	c := NewCache(2 * PageSize)
	c.Write(1)
	c.Fill(2)
	_, ev, evicted := c.Fill(3)
	if !evicted || ev.LBA != 1 || !ev.Dirty {
		t.Fatalf("evicted %v %+v, want dirty LBA 1", evicted, ev)
	}
}

func TestDirtyPages(t *testing.T) {
	c := NewCache(8 * PageSize)
	c.Write(1)
	c.Fill(2)
	c.Write(3)
	got := c.DirtyPages()
	if len(got) != 2 {
		t.Fatalf("DirtyPages = %v", got)
	}
	seen := map[int64]bool{}
	for _, lba := range got {
		seen[lba] = true
	}
	if !seen[1] || !seen[3] {
		t.Fatalf("DirtyPages = %v, want {1,3}", got)
	}
}

func TestStatsCounting(t *testing.T) {
	c := NewCache(2 * PageSize)
	c.Read(1) // miss
	c.Fill(1) // write
	c.Read(1) // hit + read
	c.Write(2)
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Reads != 1 || st.Writes != 2 {
		t.Fatalf("stats %+v", st)
	}
	if st.ReadBusyTime() != AccessLatency || st.WriteBusyTime() != 2*AccessLatency {
		t.Fatal("busy time wrong")
	}
}

func TestCapacityInvariant(t *testing.T) {
	c := NewCache(16 * PageSize)
	f := func(ops []int16) bool {
		for _, op := range ops {
			lba := int64(op) % 64
			if lba < 0 {
				lba = -lba
			}
			switch {
			case op%3 == 0:
				c.Read(lba)
			case op%3 == 1:
				c.Write(lba)
			default:
				c.Fill(lba)
			}
			if c.Len() > c.CapacityPages() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFillExistingRefreshesNotEvicts(t *testing.T) {
	c := NewCache(2 * PageSize)
	c.Fill(1)
	c.Fill(2)
	if _, _, evicted := c.Fill(1); evicted {
		t.Fatal("re-fill evicted")
	}
	// 2 is now LRU.
	if _, ev, evicted := c.Fill(3); !evicted || ev.LBA != 2 {
		t.Fatal("refresh on re-fill not applied")
	}
}

func TestWriteLatencyIsDRAMAccess(t *testing.T) {
	c := NewCache(2 * PageSize)
	lat, _, _ := c.Write(9)
	if lat != AccessLatency {
		t.Fatalf("write latency %v", lat)
	}
	if AccessLatency >= 25*sim.Microsecond {
		t.Fatal("DRAM access must be far below Flash read latency")
	}
}

// TestNewCacheWithPolicyRejectsNonLRU: LRU is the one replacement
// policy, so any other value panics instead of being ignored.
func TestNewCacheWithPolicyRejectsNonLRU(t *testing.T) {
	if c := NewCacheWithPolicy(2*PageSize, LRU); c.CapacityPages() != 2 {
		t.Fatalf("LRU cache holds %d pages, want 2", c.CapacityPages())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a non-LRU policy was accepted")
		}
	}()
	NewCacheWithPolicy(2*PageSize, LRU+1)
}

package ftl

import (
	"errors"
	"testing"
	"testing/quick"

	"flashdc/internal/sim"
)

func testFTL(t *testing.T, blocks int) *FTL {
	t.Helper()
	return New(Config{Blocks: blocks, Seed: 1})
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad config did not panic")
		}
	}()
	New(Config{Blocks: 2})
}

func TestWriteReadRoundTrip(t *testing.T) {
	f := testFTL(t, 8)
	if _, err := f.Read(42); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("unmapped read: %v", err)
	}
	if _, err := f.Write(42); err != nil {
		t.Fatal(err)
	}
	lat, err := f.Read(42)
	if err != nil || lat != 25*sim.Microsecond {
		t.Fatalf("read: %v %v", lat, err)
	}
	if f.MappedPages() != 1 {
		t.Fatalf("mapped %d", f.MappedPages())
	}
}

func TestOutOfPlaceRewrite(t *testing.T) {
	f := testFTL(t, 8)
	f.Write(1)
	a1 := f.mapping[1]
	f.Write(1)
	a2 := f.mapping[1]
	if a1 == a2 {
		t.Fatal("rewrite reused the physical page")
	}
	if f.MappedPages() != 1 {
		t.Fatal("rewrite duplicated the mapping")
	}
}

func TestCapacityAccounting(t *testing.T) {
	f := testFTL(t, 8)
	if f.CapacityPages() != 8*64 {
		t.Fatalf("capacity %d", f.CapacityPages())
	}
	if f.UsablePages() != 5*64 { // 8 - reserve(2) - open(1)
		t.Fatalf("usable %d", f.UsablePages())
	}
}

func TestFullDeviceRejectsNewPages(t *testing.T) {
	f := testFTL(t, 6)
	usable := f.UsablePages()
	for l := 0; l < usable; l++ {
		if _, err := f.Write(int64(l)); err != nil {
			t.Fatalf("write %d/%d: %v", l, usable, err)
		}
	}
	if _, err := f.Write(int64(usable)); !errors.Is(err, ErrFull) {
		t.Fatalf("over-full write: %v", err)
	}
	// Rewriting existing pages must still work (GC reclaims).
	for l := 0; l < usable; l++ {
		if _, err := f.Write(int64(l % usable)); err != nil {
			t.Fatalf("rewrite at full: %v", err)
		}
	}
	// Trim frees logical space for a new page.
	f.Trim(0)
	if _, err := f.Write(int64(usable)); err != nil {
		t.Fatalf("write after trim: %v", err)
	}
}

func TestGCPreservesData(t *testing.T) {
	f := testFTL(t, 8)
	n := f.UsablePages() * 8 / 10
	rng := sim.NewRNG(3)
	for l := 0; l < n; l++ {
		f.Write(int64(l))
	}
	// Churn hard enough to force many collections.
	for i := 0; i < 20*n; i++ {
		f.Write(int64(rng.Intn(n)))
	}
	if f.Stats().GCErases == 0 {
		t.Fatal("no GC despite churn")
	}
	for l := 0; l < n; l++ {
		if _, err := f.Read(int64(l)); err != nil {
			t.Fatalf("page %d lost by GC: %v", l, err)
		}
	}
}

func TestWriteAmplificationGrowsWithOccupancy(t *testing.T) {
	wa := func(frac float64) float64 {
		f := testFTL(t, 32)
		n := int(float64(f.UsablePages()) * frac)
		rng := sim.NewRNG(7)
		for l := 0; l < n; l++ {
			f.Write(int64(l))
		}
		for i := 0; i < 30000; i++ {
			f.Write(int64(rng.Intn(n)))
		}
		return f.Stats().WriteAmplification()
	}
	low := wa(0.4)
	high := wa(0.95)
	if high <= low {
		t.Fatalf("write amplification did not grow: %.3f -> %.3f", low, high)
	}
	if low < 1 {
		t.Fatalf("write amplification below 1: %v", low)
	}
}

func TestMappingInvariant(t *testing.T) {
	f := testFTL(t, 8)
	check := func(ops []uint16) bool {
		n := int64(f.UsablePages())
		for _, op := range ops {
			l := int64(op) % n
			switch op % 3 {
			case 0, 1:
				if _, err := f.Write(l); err != nil {
					return false
				}
			case 2:
				f.Trim(l)
			}
		}
		// Every mapping must read back; valid counts must sum to the
		// mapping size.
		total := 0
		for _, v := range f.validCount {
			total += v
		}
		if total != f.MappedPages() {
			return false
		}
		for l := range f.mapping {
			if _, err := f.Read(l); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAccounting(t *testing.T) {
	f := testFTL(t, 8)
	f.Write(1)
	f.Read(1)
	st := f.Stats()
	if st.HostWrites != 1 || st.HostReads != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.HostTime != 225*sim.Microsecond { // 200 program + 25 read
		t.Fatalf("host time %v", st.HostTime)
	}
	if st.WriteAmplification() != 1 {
		t.Fatalf("WA with no GC = %v", st.WriteAmplification())
	}
	if (Stats{}).WriteAmplification() != 0 {
		t.Fatal("zero-stats WA")
	}
}

func TestOccupancy(t *testing.T) {
	f := testFTL(t, 8)
	if f.Occupancy() != 0 {
		t.Fatal("fresh FTL occupied")
	}
	f.Write(1)
	if f.Occupancy() <= 0 || f.Occupancy() > 1 {
		t.Fatalf("occupancy %v", f.Occupancy())
	}
}

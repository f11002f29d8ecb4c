package workload

import (
	"testing"
)

func TestScrambledIsBijective(t *testing.T) {
	base := MustNew("alpha2", 0.002, 3)
	s := NewScrambled(base, 99)
	if s.FootprintPages() != base.FootprintPages() {
		t.Fatal("footprint changed")
	}
	seen := map[int64]bool{}
	for _, p := range s.perm {
		if p < 0 || p >= s.FootprintPages() || seen[p] {
			t.Fatal("perm not a bijection")
		}
		seen[p] = true
	}
}

func TestScrambledPreservesPopularityShape(t *testing.T) {
	// The *distribution* of access counts must be identical; only the
	// addresses move.
	mkCounts := func(scramble bool) map[int]int {
		g := MustNew("alpha2", 0.002, 7)
		var gen Generator = g
		if scramble {
			gen = NewScrambled(g, 11)
		}
		counts := map[int64]int{}
		for i := 0; i < 40000; i++ {
			counts[gen.Next().LBA]++
		}
		// Histogram of counts (count -> how many pages had it).
		hist := map[int]int{}
		for _, c := range counts {
			hist[c]++
		}
		return hist
	}
	plain := mkCounts(false)
	scrambled := mkCounts(true)
	if len(plain) != len(scrambled) {
		t.Fatalf("count histograms differ in support: %d vs %d", len(plain), len(scrambled))
	}
	for c, n := range plain {
		if scrambled[c] != n {
			t.Fatalf("count %d: %d pages vs %d", c, n, scrambled[c])
		}
	}
}

func TestScrambledMovesHotPages(t *testing.T) {
	g := MustNew("alpha3", 0.002, 5)
	s := NewScrambled(MustNew("alpha3", 0.002, 5), 13)
	moved := 0
	for i := 0; i < 100; i++ {
		if g.Next().LBA != s.Next().LBA {
			moved++
		}
	}
	if moved < 90 {
		t.Fatalf("scrambling left %d/100 addresses unchanged", 100-moved)
	}
	if s.Name() != "alpha3+scrambled" {
		t.Fatalf("name %q", s.Name())
	}
}

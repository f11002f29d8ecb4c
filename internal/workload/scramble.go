package workload

import (
	"flashdc/internal/sim"
	"flashdc/internal/trace"
)

// Scrambled wraps a generator with a random bijection over its page
// space, so popularity rank no longer correlates with disk address.
// The base generators map rank r to page r, which clusters hot pages
// at low addresses — harmless for recency-based caching (see the
// permutation-invariance test in internal/core) but unrealistic for
// address-sensitive mechanisms such as readahead.
type Scrambled struct {
	base Generator
	perm []int64
}

// NewScrambled builds the wrapper. The permutation is deterministic in
// seed. Footprints above a few hundred million pages would make the
// table itself the memory bottleneck; callers scale workloads first.
func NewScrambled(base Generator, seed uint64) *Scrambled {
	n := base.FootprintPages()
	perm := make([]int64, n)
	for i := range perm {
		perm[i] = int64(i)
	}
	rng := sim.NewRNG(seed)
	for i := int64(n) - 1; i > 0; i-- {
		j := int64(rng.Uint64n(uint64(i + 1)))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return &Scrambled{base: base, perm: perm}
}

// Name implements Generator.
func (s *Scrambled) Name() string { return s.base.Name() + "+scrambled" }

// FootprintPages implements Generator.
func (s *Scrambled) FootprintPages() int64 { return s.base.FootprintPages() }

// Next implements Generator. Multi-page requests are preserved in
// length but their pages scatter (sequentiality is intentionally
// destroyed — that is the point of scrambling); the request is split
// page-wise by consumers anyway.
func (s *Scrambled) Next() trace.Request {
	r := s.base.Next()
	r.LBA = s.perm[r.LBA]
	return r
}

package hier

// The hierarchy's levels, fastest first. The Flash level is absent in
// the DRAM-only baseline and when a rejected metadata image bypassed
// it; the disk always serves.
const (
	tierDRAM = iota
	tierFlash
	tierDisk
	numTiers
)

// tierNames and tierMetrics name each level in TierStats and in the
// observability counters; withFlash and dramOnly list the levels of
// the two hierarchy shapes, fastest first.
var (
	tierNames   = [numTiers]string{"dram", "flash", "disk"}
	tierMetrics [numTiers]tierMetricNames

	withFlash = []int{tierDRAM, tierFlash, tierDisk}
	dramOnly  = []int{tierDRAM, tierDisk}
)

// tierMetricNames holds one level's observability counter names.
type tierMetricNames struct {
	reads, hits, misses, writes string
}

func init() {
	for i, name := range tierNames {
		tierMetrics[i] = tierMetricNames{
			reads:  "tier_" + name + "_reads_total",
			hits:   "tier_" + name + "_hits_total",
			misses: "tier_" + name + "_misses_total",
			writes: "tier_" + name + "_writes_total",
		}
	}
}

// TierStats counts one level's activity in level-agnostic terms.
type TierStats struct {
	// Name identifies the level the counters describe.
	Name string
	// Reads counts lookups, including readahead's; Hits/Misses split
	// them by outcome. The disk always hits.
	Reads, Hits, Misses int64
	// Writes counts pages stored at this level, including dirty PDC
	// evictions arriving from above. The Flash cache's own write-backs
	// to the drive are not disk-level writes.
	Writes int64
}

// Merge adds other's counters into t, combining the same level of
// independent shards into one total.
func (t *TierStats) Merge(other TierStats) {
	if t.Name == "" {
		t.Name = other.Name
	}
	t.Reads += other.Reads
	t.Hits += other.Hits
	t.Misses += other.Misses
	t.Writes += other.Writes
}

// levels returns the present levels, fastest first.
func (s *System) levels() []int {
	if s.flash == nil {
		return dramOnly
	}
	return withFlash
}

// TierStats returns the per-level activity counters, fastest first.
func (s *System) TierStats() []TierStats {
	levels := s.levels()
	out := make([]TierStats, len(levels))
	for i, l := range levels {
		out[i] = s.tiers[l]
		out[i].Name = tierNames[l]
	}
	return out
}

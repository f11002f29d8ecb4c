// Package policy names and validates the pluggable cache policies:
// flash eviction, flash admission, and GC victim selection. The
// decision logic itself lives next to the state it needs —
// internal/core implements the policies against its region/block
// internals, internal/model mirrors the admission semantics — while
// this package owns the registry (names, defaults, validation) that
// configuration surfaces (harness.Config, cmd/fdcsim flags) share, and
// the pure-LBA admission filter whose update sequence both the real
// cache and the reference model replay identically.
package policy

import (
	"fmt"
	"sort"
	"strings"
)

// Policy kinds — the three decision points the framework covers.
const (
	KindEvict = "evict"
	KindAdmit = "admit"
	KindGC    = "gc"
)

// Eviction policy names.
const (
	// EvictWearLRU is the paper's section 3.6 policy (default): the
	// LRU block is the victim, and a worn victim swaps roles with the
	// globally newest block after the erase.
	EvictWearLRU = "wear-lru"
	// EvictCMWear is Boukhobza et al.'s cache-management-instead-of-
	// wear-leveling strategy: the victim is the least-erased block in
	// a small LRU-tail window, and the explicit wear-rotation
	// migrations are disabled — replacement itself spreads the wear.
	EvictCMWear = "cm-wear"
)

// Admission policy names.
const (
	// AdmitPaper is the paper's behaviour (default): every read miss
	// fills the read region and every dirty write-back lands in the
	// write region.
	AdmitPaper = "paper"
	// AdmitWLFC is WLFC-style write-less admission: read-miss fills
	// are admitted only on the second touch (demonstrated reuse), and
	// dirty write-backs bypass Flash entirely (write-around to disk).
	AdmitWLFC = "wlfc"
	// AdmitThrottle is scheduler-informed admission throttling: while
	// the NAND write buffer's fill fraction sits above a high-water
	// mark (with hysteresis), dirty write-backs go write-around and
	// cold read-miss fills (no demonstrated reuse yet) are rejected;
	// when the buffer drains, admission recovers to the paper's
	// admit-everything behaviour. With no write buffer configured the
	// fill signal is always zero and the policy is the paper's.
	AdmitThrottle = "throttle"
)

// GC victim-selection policy names.
const (
	// GCGreedy is the paper's collector (default): the most-invalid
	// block wins; non-forced collections must be at least half
	// invalid to pay for their relocations.
	GCGreedy = "greedy"
	// GCCostBenefit maximises Dayan & Bonnet's cost-benefit score
	// (1-u)/(2u) x age, preferring cold blocks whose age promises the
	// remaining valid pages will stay valid after relocation.
	GCCostBenefit = "cost-benefit"
	// GCWindowedGreedy restricts greedy to a fixed-size window of
	// LRU-tail blocks, approximating cost-benefit's age preference at
	// greedy's scan cost.
	GCWindowedGreedy = "windowed-greedy"
	// GCContentionAware is scheduler-informed victim selection: each
	// candidate's reclaimable benefit (invalid pages) is divided by
	// the predicted wait on its bank, steering erases toward idle
	// banks, and non-forced collection defers entirely while the
	// foreground channel backlog is deep (a bounded number of times in
	// a row, so reclamation can never starve). Without a clock the
	// occupancy queries report an idle
	// device: deferral never fires and the policy picks greedy's
	// victim whenever greedy would collect.
	GCContentionAware = "contention-aware"
)

// catalog maps each kind to its registered names; the first entry is
// the default.
var catalog = map[string][]string{
	KindEvict: {EvictWearLRU, EvictCMWear},
	KindAdmit: {AdmitPaper, AdmitWLFC, AdmitThrottle},
	KindGC:    {GCGreedy, GCCostBenefit, GCWindowedGreedy, GCContentionAware},
}

// Kinds returns the policy kinds in presentation order.
func Kinds() []string { return []string{KindEvict, KindAdmit, KindGC} }

// Names returns the registered implementations of a kind, default
// first, or nil for an unknown kind.
func Names(kind string) []string {
	return append([]string(nil), catalog[kind]...)
}

// DefaultName returns the default implementation of a kind.
func DefaultName(kind string) string { return catalog[kind][0] }

// Set selects one implementation per decision point. The zero value
// means all defaults; Normalized resolves the empty strings.
type Set struct {
	Evict string
	Admit string
	GC    string
}

// Normalized returns s with empty selections resolved to the
// defaults.
func (s Set) Normalized() Set {
	if s.Evict == "" {
		s.Evict = EvictWearLRU
	}
	if s.Admit == "" {
		s.Admit = AdmitPaper
	}
	if s.GC == "" {
		s.GC = GCGreedy
	}
	return s
}

// Validate rejects unknown policy names. Empty strings are valid (they
// mean the default).
func (s Set) Validate() error {
	check := func(kind, name string) error {
		if name == "" {
			return nil
		}
		for _, n := range catalog[kind] {
			if n == name {
				return nil
			}
		}
		return fmt.Errorf("policy: unknown %s policy %q (have %s)",
			kind, name, strings.Join(catalog[kind], ", "))
	}
	if err := check(KindEvict, s.Evict); err != nil {
		return err
	}
	if err := check(KindAdmit, s.Admit); err != nil {
		return err
	}
	return check(KindGC, s.GC)
}

// IsDefault reports whether every selection is the paper's default
// behaviour (explicitly or by omission).
func (s Set) IsDefault() bool {
	n := s.Normalized()
	return n.Evict == EvictWearLRU && n.Admit == AdmitPaper && n.GC == GCGreedy
}

// String renders the normalized selection, e.g.
// "evict=wear-lru admit=paper gc=greedy".
func (s Set) String() string {
	n := s.Normalized()
	return fmt.Sprintf("evict=%s admit=%s gc=%s", n.Evict, n.Admit, n.GC)
}

// AdmitFilter is the WLFC second-touch admission filter: a pure
// function of the sequence of Touch calls, shared by the real cache
// and the reference model so both replay identical admission
// decisions. Touch counts are capped at the admission threshold, so
// the state is bounded by the touched-LBA footprint.
type AdmitFilter struct {
	touches map[int64]uint8
}

// admitThreshold is the touch count at which a page has demonstrated
// reuse (WLFC's second access).
const admitThreshold = 2

// NewAdmitFilter returns an empty filter.
func NewAdmitFilter() *AdmitFilter {
	return &AdmitFilter{touches: make(map[int64]uint8)}
}

// Touch records one flash-tier read lookup of lba.
func (f *AdmitFilter) Touch(lba int64) {
	if n := f.touches[lba]; n < admitThreshold {
		f.touches[lba] = n + 1
	}
}

// Hot reports whether lba has been touched at least twice — the WLFC
// admission criterion.
func (f *AdmitFilter) Hot(lba int64) bool {
	return f.touches[lba] >= admitThreshold
}

// AdmitEntry is one filter entry in checkpoint form.
type AdmitEntry struct {
	LBA   int64
	Count uint8
}

// Checkpoint returns the filter state sorted by LBA — a canonical
// form, so two filters with the same contents always serialise to the
// same bytes regardless of map iteration order.
func (f *AdmitFilter) Checkpoint() []AdmitEntry {
	out := make([]AdmitEntry, 0, len(f.touches))
	for lba, n := range f.touches {
		out = append(out, AdmitEntry{LBA: lba, Count: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].LBA < out[j].LBA })
	return out
}

// Restore replaces the filter state with a checkpoint. Entries with
// out-of-range counts or duplicate LBAs reject the whole restore.
func (f *AdmitFilter) Restore(entries []AdmitEntry) error {
	m := make(map[int64]uint8, len(entries))
	for _, e := range entries {
		if e.Count < 1 || e.Count > admitThreshold {
			return fmt.Errorf("policy: admit filter entry lba %d has count %d outside [1,%d]",
				e.LBA, e.Count, admitThreshold)
		}
		if _, dup := m[e.LBA]; dup {
			return fmt.Errorf("policy: admit filter checkpoint lists lba %d twice", e.LBA)
		}
		m[e.LBA] = e.Count
	}
	f.touches = m
	return nil
}

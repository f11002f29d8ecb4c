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
	"slices"
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
	// GCContentionAware is scheduler-informed victim selection: it
	// takes greedy's most-invalid victim, then lets any candidate
	// within 7/8 of that benefit displace it when its bank is
	// predicted to free sooner, steering erases toward idle banks.
	// Non-forced collection defers entirely while the foreground
	// channel backlog is deep, at most 8 times in a row, so
	// reclamation can never starve. Without a clock the occupancy
	// queries report an idle device: deferral never fires and the
	// policy picks greedy's victim whenever greedy would collect.
	GCContentionAware = "contention-aware"
)

// catalog maps each kind to its registered names; the first entry is
// the default.
var catalog = map[string][]string{
	KindEvict: {EvictWearLRU, EvictCMWear},
	KindAdmit: {AdmitPaper, AdmitWLFC, AdmitThrottle},
	KindGC:    {GCGreedy, GCCostBenefit, GCContentionAware},
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
//
// Counts live in dense pages of filterPageSize uint8s, one page per
// aligned run of LBAs (keyed by lba >> filterPageBits), so a dense
// stream costs about a byte per LBA instead of a map entry, and a
// lookup of the page the last call used skips the map. The worst
// case, one touched LBA per page, costs a map entry plus one page.
type AdmitFilter struct {
	index map[int64]int32 // page key -> position in pages
	pages []filterPage
	// lastKey/last cache the page of the most recent lookup; last is
	// nil until a lookup finds a page.
	lastKey int64
	last    *filterPage
}

// filterPageBits sets the page size: 16 LBAs keeps the one-LBA-per-page
// worst case under about twice a map[int64]uint8 entry.
const (
	filterPageBits = 4
	filterPageSize = 1 << filterPageBits
	filterPageMask = filterPageSize - 1
)

type filterPage [filterPageSize]uint8

// admitThreshold is the touch count at which a page has demonstrated
// reuse (WLFC's second access).
const admitThreshold = 2

// NewAdmitFilter returns an empty filter.
func NewAdmitFilter() *AdmitFilter {
	return &AdmitFilter{index: make(map[int64]int32)}
}

// page returns the page holding lba's count, adding an empty one when
// create is set, or nil when there is none.
func (f *AdmitFilter) page(lba int64, create bool) *filterPage {
	key := lba >> filterPageBits
	if f.last != nil && key == f.lastKey {
		return f.last
	}
	i, ok := f.index[key]
	if !ok {
		if !create {
			return nil
		}
		i = int32(len(f.pages))
		f.index[key] = i
		f.pages = append(f.pages, filterPage{}) // may move every page: last is re-pointed below
	}
	f.lastKey, f.last = key, &f.pages[i]
	return f.last
}

// Touch records one flash-tier read lookup of lba.
func (f *AdmitFilter) Touch(lba int64) {
	if n := &f.page(lba, true)[lba&filterPageMask]; *n < admitThreshold {
		*n++
	}
}

// Hot reports whether lba has been touched at least twice — the WLFC
// admission criterion.
func (f *AdmitFilter) Hot(lba int64) bool {
	p := f.page(lba, false)
	return p != nil && p[lba&filterPageMask] >= admitThreshold
}

// AdmitEntry is one filter entry in checkpoint form.
type AdmitEntry struct {
	LBA   int64
	Count uint8
}

// Checkpoint returns the touched LBAs and their counts sorted by LBA —
// a canonical form, so two filters with the same contents always
// serialise to the same bytes whatever order their pages were added.
func (f *AdmitFilter) Checkpoint() []AdmitEntry {
	keys := make([]int64, 0, len(f.index))
	for key := range f.index {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	out := make([]AdmitEntry, 0, len(keys))
	for _, key := range keys {
		for off, n := range f.pages[f.index[key]] {
			if n > 0 {
				out = append(out, AdmitEntry{LBA: key<<filterPageBits | int64(off), Count: n})
			}
		}
	}
	return out
}

// Restore replaces the filter state with a checkpoint. Entries with
// out-of-range counts or duplicate LBAs reject the whole restore and
// leave the filter as it was.
func (f *AdmitFilter) Restore(entries []AdmitEntry) error {
	g := NewAdmitFilter()
	for _, e := range entries {
		if e.Count < 1 || e.Count > admitThreshold {
			return fmt.Errorf("policy: admit filter entry lba %d has count %d outside [1,%d]",
				e.LBA, e.Count, admitThreshold)
		}
		n := &g.page(e.LBA, true)[e.LBA&filterPageMask]
		if *n != 0 {
			return fmt.Errorf("policy: admit filter checkpoint lists lba %d twice", e.LBA)
		}
		*n = e.Count
	}
	*f = *g
	return nil
}

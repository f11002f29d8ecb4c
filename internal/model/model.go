// Package model is the differential-testing oracle for the simulator:
// a deliberately naive reference of the DRAM + Flash + disk hierarchy
// with in-place semantics — plain maps and lists, no garbage
// collection, no out-of-place writes, no wear, no latency. Because it
// is small enough to be obviously correct, any disagreement with the
// real stack (hier.System and the packages under it) is a bug in the
// real stack, in the model's understanding of the contract, or in the
// contract's documentation — all three worth finding.
//
// The model answers three questions for every trace.Request:
//
//   - which tier must serve each page (the DRAM mirror is exact, so
//     primary-cache hits are predicted exactly; for the rest the model
//     bounds which pages Flash could possibly serve),
//   - what must be resident afterwards (the page just read or written
//     is in DRAM, with the right dirty bit, at the right LRU slot),
//   - which LBAs must be invalid (anything outside the DRAM mirror and
//     the Flash may-set must not be served by a cache tier).
//
// Flash residency is tracked as an over-approximation (a "may" set):
// the real Flash cache loses pages the model cannot see — uncorrectable
// reads under fault injection, block retirement, allocation collapse —
// but it never gains one the model did not add, because every insert
// path (read-miss fill, dirty write-back, drain) is mirrored here.
// A superset stays sound: it can only weaken the must-not-be-cached
// check, never report a false divergence.
package model

import (
	"container/list"
	"fmt"

	"flashdc/internal/dram"
	"flashdc/internal/hier"
	"flashdc/internal/nand"
	"flashdc/internal/policy"
	"flashdc/internal/trace"
)

// page is one DRAM-mirror entry.
type page struct {
	lba   int64
	dirty bool
}

// Model mirrors one hier.System. Not safe for concurrent use.
type Model struct {
	dramCap  int
	hasFlash bool
	lru      *list.List // front = most recently used
	idx      map[int64]*list.Element
	flashMay map[int64]struct{}
	// admit mirrors the WLFC admission filter (nil under the default
	// paper admission, which admits everything). It replays exactly
	// the real cache's Touch sequence: core.Cache.Read fires once per
	// flash-tier lookup, which is precisely the set of pages the DRAM
	// mirror does not serve.
	admit *policy.AdmitFilter
	// writeAround mirrors write-less lazy write-back: dirty DRAM
	// evictions and drains bypass Flash, so they never enter the
	// may-set.
	writeAround bool
}

// New builds a model for a hierarchy with the given configuration.
// The model's DRAM mirror is exact only for the configurations it
// refuses to approximate: readahead off (prefetch fills DRAM on paths
// the reference deliberately does not reproduce) and the LRU primary
// cache policy.
func New(cfg hier.Config) (*Model, error) {
	if cfg.ReadAhead != 0 {
		return nil, fmt.Errorf("model: readahead %d unsupported (the reference mirrors demand fills only)", cfg.ReadAhead)
	}
	if cfg.PDCPolicy != dram.LRU {
		return nil, fmt.Errorf("model: PDC policy %v unsupported (the reference is a strict LRU mirror)", cfg.PDCPolicy)
	}
	pages := int(cfg.DRAMBytes / dram.PageSize)
	if pages < 1 {
		return nil, fmt.Errorf("model: DRAM %d bytes holds no pages", cfg.DRAMBytes)
	}
	ps := cfg.Flash.Policies
	if err := ps.Validate(); err != nil {
		return nil, err
	}
	m := &Model{
		dramCap:  pages,
		hasFlash: cfg.FlashBytes > 0,
		lru:      list.New(),
		idx:      make(map[int64]*list.Element, pages),
		flashMay: make(map[int64]struct{}),
	}
	// Eviction and GC-victim policies only affect which pages the real
	// Flash *loses*, which the may-set over-approximation already
	// tolerates; admission affects which pages it can *gain*, so only
	// that policy needs a mirror here. WLFC is the one admission policy
	// that needs one: it shrinks the gainable set unconditionally. The
	// throttle policy only rejects a subset of what the paper would
	// admit — and only sometimes — so the paper's may-set is already a
	// sound over-approximation of it and it flows through unmirrored,
	// like the scheduler-feedback GC and scrub paths, which are pure
	// timing/victim-choice perturbations.
	if m.hasFlash && ps.Normalized().Admit == policy.AdmitWLFC {
		m.admit = policy.NewAdmitFilter()
		m.writeAround = true
	}
	return m, nil
}

// PageFate describes one page of a request the DRAM mirror did not
// serve: the real system must serve it from Flash or disk, and it may
// legally come from Flash only when FlashPossible is set.
type PageFate struct {
	LBA           int64
	FlashPossible bool
}

// Prediction is the model's verdict for one request.
type Prediction struct {
	// PDCHits is the exact number of pages the DRAM tier must serve.
	PDCHits int
	// NonDRAM lists the remaining pages in access order.
	NonDRAM []PageFate
}

// Step advances the model by one request and returns what the real
// system must do with it.
func (m *Model) Step(req trace.Request) Prediction {
	var p Prediction
	req.Expand(func(lba int64) {
		if req.Op == trace.OpRead {
			m.readPage(lba, &p)
		} else {
			m.writePage(lba)
		}
	})
	return p
}

func (m *Model) readPage(lba int64, p *Prediction) {
	if el, ok := m.idx[lba]; ok {
		m.lru.MoveToFront(el)
		p.PDCHits++
		return
	}
	p.NonDRAM = append(p.NonDRAM, PageFate{LBA: lba, FlashPossible: m.mayBeInFlash(lba)})
	// Fill on the way back up: Flash absorbs the page when the read
	// was served below it (and already held it otherwise), then DRAM.
	// Under WLFC the fill is filtered: a cold page's first touch only
	// records interest, so it can enter Flash no earlier than its
	// second flash-tier lookup (a page already resident is already in
	// the may-set, so skipping the add stays a superset).
	if m.admit != nil {
		m.admit.Touch(lba)
	}
	if m.hasFlash && (m.admit == nil || m.admit.Hot(lba)) {
		m.flashMay[lba] = struct{}{}
	}
	m.insert(lba, false)
}

func (m *Model) writePage(lba int64) {
	if el, ok := m.idx[lba]; ok {
		el.Value.(*page).dirty = true
		m.lru.MoveToFront(el)
		return
	}
	m.insert(lba, true)
}

// insert adds lba to the DRAM mirror, evicting the LRU victim first
// when full; a dirty victim is written back one tier down, which for
// a Flash-backed hierarchy makes it Flash-resident.
func (m *Model) insert(lba int64, dirty bool) {
	if m.lru.Len() >= m.dramCap {
		back := m.lru.Back()
		v := back.Value.(*page)
		if v.dirty && m.hasFlash && !m.writeAround {
			m.flashMay[v.lba] = struct{}{}
		}
		delete(m.idx, v.lba)
		m.lru.Remove(back)
	}
	m.idx[lba] = m.lru.PushFront(&page{lba: lba, dirty: dirty})
}

// Drain mirrors System.Drain: every dirty DRAM page is flushed one
// tier down and marked clean.
func (m *Model) Drain() {
	for el := m.lru.Front(); el != nil; el = el.Next() {
		v := el.Value.(*page)
		if v.dirty {
			if m.hasFlash && !m.writeAround {
				m.flashMay[v.lba] = struct{}{}
			}
			v.dirty = false
		}
	}
}

// mayBeInFlash reports whether the real Flash cache could hold lba.
func (m *Model) mayBeInFlash(lba int64) bool {
	_, ok := m.flashMay[lba]
	return ok
}

// Check diffs the real system's full state against the model: the
// system's own cross-table audit, exact DRAM agreement (population,
// recency order, and dirty bits), and Flash residency containment in
// the may-set. It returns the first divergence found, or nil.
func Check(sys *hier.System, m *Model) error {
	if err := sys.CheckIntegrity(); err != nil {
		return err
	}
	// DRAM: walk both LRU chains in lockstep, MRU first.
	type ent struct {
		lba   int64
		dirty bool
	}
	var real []ent
	sys.PDC().Range(func(lba int64, dirty bool) bool {
		real = append(real, ent{lba, dirty})
		return true
	})
	if len(real) != m.lru.Len() {
		return fmt.Errorf("model: DRAM holds %d pages, reference holds %d", len(real), m.lru.Len())
	}
	i := 0
	for el := m.lru.Front(); el != nil; el = el.Next() {
		want := el.Value.(*page)
		got := real[i]
		if got.lba != want.lba || got.dirty != want.dirty {
			return fmt.Errorf("model: DRAM LRU slot %d holds (lba %d, dirty %v), reference holds (lba %d, dirty %v)",
				i, got.lba, got.dirty, want.lba, want.dirty)
		}
		i++
	}
	// Flash: the real population must be inside the may-set. The
	// reverse is deliberately unchecked — the real cache loses pages
	// to faults and retirement the model does not track.
	if fc := sys.Flash(); fc != nil {
		var leak error
		fc.RangeCached(func(lba int64, a nand.Addr) bool {
			if !m.mayBeInFlash(lba) {
				leak = fmt.Errorf("model: Flash holds lba %d at %v, which no insert path could have put there", lba, a)
				return false
			}
			return true
		})
		if leak != nil {
			return leak
		}
	}
	return nil
}

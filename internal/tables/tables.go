// Package tables implements the four management data structures the
// paper's software-managed Flash disk cache keeps in DRAM (sections
// 3.1-3.4): the FlashCache hash table (FCHT) mapping disk addresses to
// Flash pages, the Flash page status table (FPST) holding per-page ECC
// strength, valid bit and a saturating access counter plus each slot's
// staged density, the Flash block status table (FBST) holding the
// degree-of-wear cost function's reconfiguration terms, and the Flash
// global status table (FGST) summarising miss rate and average
// latencies.
//
// The tables hold only the controller's own decisions. The physical
// state they would otherwise mirror — each slot's current density,
// each block's erase count and retirement — lives once, in the NAND
// device (internal/nand), and callers read it there.
//
// Disk addresses are page-aligned disk page numbers (2KB units) stored
// as int64, the paper's logical block address (LBA) tags.
package tables

import (
	"fmt"

	"flashdc/internal/ecc"
	"flashdc/internal/lbaindex"
	"flashdc/internal/nand"
	"flashdc/internal/sim"
	"flashdc/internal/wear"
)

// InvalidLBA marks a Flash page that holds no disk data.
const InvalidLBA = int64(-1)

// FCHT is the FlashCache hash table: a fully associative map from disk
// page number to the Flash page caching it (section 3.1). It is a
// bounded open-addressing table (lbaindex) sized to the device's page
// count, holding each nand.Addr as the int32 it is.
//
// The table stores no LBAs: the FPST entry of each mapped page is the
// reverse map, and the table reads a page's LBA there to confirm a
// lookup. So for every mapping lba -> a, FPST.At(a).LBA is lba from
// before the Put that stores it until after the Delete that removes
// it: set a page's LBA before mapping it, and unmap it before
// changing or clearing that LBA.
type FCHT struct {
	t    *lbaindex.Table
	fpst *FPST
}

// NewFCHT returns an empty table for the device fpst describes, using
// fpst's page LBAs as its reverse map. It holds at most one mapping
// per Flash page (two per slot).
func NewFCHT(fpst *FPST) *FCHT {
	slots := fpst.slots
	return &FCHT{
		t: lbaindex.New(2*len(slots), func(v int32) int64 {
			return slots[v>>1].Pages[v&1].LBA
		}),
		fpst: fpst,
	}
}

// Get returns the Flash address caching lba.
func (f *FCHT) Get(lba int64) (nand.Addr, bool) {
	v, ok := f.t.Get(lba)
	return nand.Addr(v), ok
}

// Put records that lba is cached at addr, replacing any previous
// mapping; FPST.At(addr).LBA must already be lba. It panics if addr
// names no page of the FPST's device.
func (f *FCHT) Put(lba int64, addr nand.Addr) {
	if uint(addr.SlotIndex()) >= uint(len(f.fpst.slots)) {
		panic(fmt.Sprintf("tables: FCHT mapping lba %d to %v, outside the device's %d slots", lba, addr, len(f.fpst.slots)))
	}
	f.t.Put(lba, int32(addr))
}

// Delete removes the mapping for lba if present.
func (f *FCHT) Delete(lba int64) { f.t.Delete(lba) }

// Len returns the number of cached disk pages.
func (f *FCHT) Len() int { return f.t.Len() }

// Range calls fn for every cached mapping, its LBA read from the FPST,
// until fn returns false. Iteration order is unspecified; fn must not
// mutate the table.
func (f *FCHT) Range(fn func(lba int64, addr nand.Addr) bool) {
	f.t.Range(func(lba int64, v int32) bool { return fn(lba, nand.Addr(v)) })
}

// Holds reports whether the table files addr under lba's own hash
// chain and tag, where Get(lba) looks, without reading the FPST. An
// audit checks each mapping's FPST LBA this way: a forged LBA leaves
// the mapping filed under another key.
func (f *FCHT) Holds(lba int64, addr nand.Addr) bool { return f.t.Holds(lba, int32(addr)) }

// PageStatus is one FPST entry (section 3.2). Strength is the page's
// active ECC strength; StagedStrength holds the controller's pending
// reconfiguration, applied on the next erase and write (section 5.2).
// The two 4-byte strengths share one word and the padding after Valid
// is the only slack, so an entry is 32 bytes and a SlotStatus 72
// (TestSlotStatusSize). Checkpoints gob-encode the FPST, whose wire
// order follows declaration order: do not reorder the fields.
type PageStatus struct {
	Strength       ecc.Strength
	StagedStrength ecc.Strength
	// LBA is the disk page stored here, or InvalidLBA. It is the
	// reverse of the FCHT mapping, needed during garbage collection.
	LBA int64
	// InsertedAt is the cache access-sequence number when the page
	// was last programmed, used to estimate its relative access
	// frequency (freq_i of the section 5.2.1 heuristics).
	InsertedAt uint64
	// Access is the saturating read counter driving hot-page SLC
	// promotion (section 5.2.2).
	Access uint32
	Valid  bool
}

// SlotStatus is the FPST state of one physical slot: its two page
// entries (an SLC slot leaves Sub 1 unused) and the density staged for
// the whole slot, applied on the block's next erase. The slot's current
// density is the device's (nand.Device.Mode).
type SlotStatus struct {
	Pages      [2]PageStatus
	StagedMode wear.Mode
}

// FPST is the Flash page status table, dimensioned to the device
// geometry: one SlotStatus per slot, block by block in one allocation,
// indexed like the device's slots (nand.Addr.SlotIndex).
type FPST struct {
	slots    []SlotStatus
	saturate uint32
}

// NewFPST builds a table for a device with the given block count,
// every page starting invalid at the given base configuration.
// saturate is the access-counter ceiling. A block count outside 1 to
// nand.MaxBlocks or a zero saturation ceiling is a configuration
// error, reported before anything is allocated.
func NewFPST(blocks int, baseStrength ecc.Strength, baseMode wear.Mode, saturate uint32) (*FPST, error) {
	if blocks <= 0 || blocks > nand.MaxBlocks {
		return nil, fmt.Errorf("tables: FPST needs 1 to %d blocks, have %d", nand.MaxBlocks, blocks)
	}
	if saturate == 0 {
		return nil, fmt.Errorf("tables: access counter must saturate above zero")
	}
	page := PageStatus{Strength: baseStrength, StagedStrength: baseStrength, LBA: InvalidLBA}
	f := &FPST{slots: make([]SlotStatus, blocks*nand.SlotsPerBlock), saturate: saturate}
	for i := range f.slots {
		f.slots[i] = SlotStatus{Pages: [2]PageStatus{page, page}, StagedMode: baseMode}
	}
	return f, nil
}

// At returns the status entry for a Flash page. The pointer stays
// valid for the table's lifetime.
func (f *FPST) At(a nand.Addr) *PageStatus { return &f.Slot(a).Pages[a.Sub()] }

// Slot returns the status of the slot holding page a. The pointer
// stays valid for the table's lifetime.
func (f *FPST) Slot(a nand.Addr) *SlotStatus { return &f.slots[a.SlotIndex()] }

// Saturate returns the access-counter ceiling.
func (f *FPST) Saturate() uint32 { return f.saturate }

// IncAccess bumps the page's saturating read counter and reports
// whether this access made it saturate (the hot-page promotion
// trigger). Further accesses of a saturated counter return false.
func (f *FPST) IncAccess(a nand.Addr) bool {
	st := f.At(a)
	if st.Access >= f.saturate {
		return false
	}
	st.Access++
	return st.Access == f.saturate
}

// BlockStatus is one FBST entry (section 3.3): the reconfiguration
// terms of the degree-of-wear cost function. The erase count, its
// third term, is the device's (nand.Device.EraseCount).
type BlockStatus struct {
	// TotalECC is the summed ECC strength of the block's pages, the
	// Total_ECC,i term of the wear-out cost function.
	TotalECC int
	// TotalSLC is the number of pages converted to SLC mode due to
	// wear, the Total_SLC_MLC,i term.
	TotalSLC int
}

// FBST is the Flash block status table with the paper's degree-of-wear
// cost function:
//
//	wear_out_i = N_erase,i + K1*Total_ECC,i + K2*Total_SLC_MLC,i
//
// K2 > K1 because a density switch signals far more wear than an ECC
// strength bump (section 3.3).
type FBST struct {
	K1, K2 float64
	blocks []BlockStatus
}

// NewFBST builds a table for the given block count. K1 and K2 are the
// positive weight factors; the defaults used by the cache are set by
// the caller so ablations can sweep them. A non-positive block count
// or weights violating 0 < K1 < K2 is a configuration error.
func NewFBST(blocks int, k1, k2 float64) (*FBST, error) {
	if blocks <= 0 {
		return nil, fmt.Errorf("tables: FBST needs at least one block, have %d", blocks)
	}
	if k1 <= 0 || k2 <= k1 {
		return nil, fmt.Errorf("tables: want 0 < K1 < K2, got K1=%v K2=%v", k1, k2)
	}
	return &FBST{K1: k1, K2: k2, blocks: make([]BlockStatus, blocks)}, nil
}

// At returns the status entry for block b.
func (f *FBST) At(b int) *BlockStatus { return &f.blocks[b] }

// Blocks returns the number of blocks tracked.
func (f *FBST) Blocks() int { return len(f.blocks) }

// WearOut evaluates the degree-of-wear cost function for block b,
// which has endured erases erase cycles.
func (f *FBST) WearOut(b, erases int) float64 {
	st := &f.blocks[b]
	return float64(erases) + f.K1*float64(st.TotalECC) + f.K2*float64(st.TotalSLC)
}

// FGST is the Flash global status table (section 3.4): running miss
// rate and latency averages the reconfiguration heuristics consume,
// plus counters for the reconfiguration-event breakdown of Figure 11.
type FGST struct {
	Hits, Misses int64
	// HitLatencyTotal accumulates Flash hit service times; the
	// average feeds t_hit of the section 5.2.1 heuristics.
	HitLatencyTotal sim.Duration
	// ECCReconfigs and DensityReconfigs count descriptor updates by
	// kind (Figure 11).
	ECCReconfigs, DensityReconfigs int64
}

// Merge adds other's counters into g, combining per-shard global
// status tables into one report. The merged averages are the
// sample-weighted means of the shards'.
func (g *FGST) Merge(other FGST) {
	g.Hits += other.Hits
	g.Misses += other.Misses
	g.HitLatencyTotal += other.HitLatencyTotal
	g.ECCReconfigs += other.ECCReconfigs
	g.DensityReconfigs += other.DensityReconfigs
}

// RecordHit accumulates one Flash hit.
func (g *FGST) RecordHit(latency sim.Duration) {
	g.Hits++
	g.HitLatencyTotal += latency
}

// RecordMiss accumulates one miss serviced by disk. The miss penalty
// t_miss is the configured disk penalty, so it is not averaged.
func (g *FGST) RecordMiss() { g.Misses++ }

// MissRate returns the running miss ratio, zero before any access.
func (g *FGST) MissRate() float64 {
	total := g.Hits + g.Misses
	if total == 0 {
		return 0
	}
	return float64(g.Misses) / float64(total)
}

// AvgHitLatency returns t_hit, falling back to def before any hit.
func (g *FGST) AvgHitLatency(def sim.Duration) sim.Duration {
	if g.Hits == 0 {
		return def
	}
	return sim.Duration(int64(g.HitLatencyTotal) / g.Hits)
}

// Package ftl implements a log-structured Flash translation layer —
// the "Flash as a solid-state disk" usage model of paper section 2.2
// (the eNVy lineage). Unlike the disk cache of internal/core, an FTL
// must preserve every valid page, so its garbage collector relocates
// live data no matter how expensive that becomes as occupancy grows;
// Figure 1(b) quantifies exactly that cost, and the ssd-vs-cache
// experiment contrasts the two usage models end to end.
//
// The design is the classic greedy cleaner: out-of-place writes append
// to an open block, the victim with the fewest valid pages is
// collected, and a small free-block reserve guarantees the cleaner's
// own relocations never deadlock the allocator.
package ftl

import (
	"errors"
	"fmt"

	"flashdc/internal/nand"
	"flashdc/internal/sim"
	"flashdc/internal/wear"
)

// ErrFull is returned when the logical space cannot grow further: the
// device needs at least the GC reserve free.
var ErrFull = errors.New("ftl: device full")

// ErrUnmapped is returned when reading a logical page never written.
var ErrUnmapped = errors.New("ftl: logical page not mapped")

// Config sizes the FTL.
type Config struct {
	// Blocks is the erase-block count of the underlying device.
	Blocks int
	// Mode is the (fixed) cell density; the disk-cache controller's
	// dynamic density management does not apply to a plain FTL.
	Mode wear.Mode
	// Seed drives device wear sampling.
	Seed uint64
	// Reserve is the number of free blocks kept for the cleaner
	// (default 2).
	Reserve int
}

// Stats counts FTL activity.
type Stats struct {
	// HostReads and HostWrites are logical operations served.
	HostReads, HostWrites int64
	// GCRelocations counts live pages moved by the cleaner; GCERases
	// the victim erases; GCTime the total cleaning time.
	GCRelocations int64
	GCErases      int64
	GCTime        sim.Duration
	// HostTime is the foreground device time (reads + host programs).
	HostTime sim.Duration
}

// WriteAmplification returns physical programs per host write.
func (s Stats) WriteAmplification() float64 {
	if s.HostWrites == 0 {
		return 0
	}
	return float64(s.HostWrites+s.GCRelocations) / float64(s.HostWrites)
}

// FTL is a log-structured flash translation layer over one NAND
// device. Not safe for concurrent use.
type FTL struct {
	dev           *nand.Device
	cfg           Config
	pagesPerBlock int

	mapping    map[int64]nand.Addr // logical -> physical
	reverse    [][]int64           // [block][pageIndex] -> logical, -1 invalid
	validCount []int
	freeBlocks []int
	isFree     []bool
	open       int
	cursor     int
	stats      Stats
}

// New builds an FTL. It panics on degenerate configurations.
func New(cfg Config) *FTL {
	if cfg.Blocks < 4 {
		panic("ftl: need at least 4 blocks")
	}
	if cfg.Reserve == 0 {
		cfg.Reserve = 2
	}
	if cfg.Reserve < 1 || cfg.Reserve >= cfg.Blocks-1 {
		panic(fmt.Sprintf("ftl: reserve %d out of range for %d blocks", cfg.Reserve, cfg.Blocks))
	}
	dev := nand.New(nand.Config{
		Blocks:      cfg.Blocks,
		InitialMode: cfg.Mode,
		Seed:        cfg.Seed,
	})
	ppb := nand.SlotsPerBlock
	if cfg.Mode == wear.MLC {
		ppb *= 2
	}
	f := &FTL{
		dev:           dev,
		cfg:           cfg,
		pagesPerBlock: ppb,
		mapping:       make(map[int64]nand.Addr),
		reverse:       make([][]int64, cfg.Blocks),
		validCount:    make([]int, cfg.Blocks),
		isFree:        make([]bool, cfg.Blocks),
		open:          0,
	}
	for b := range f.reverse {
		f.reverse[b] = make([]int64, ppb)
		for i := range f.reverse[b] {
			f.reverse[b][i] = -1
		}
	}
	for b := cfg.Blocks - 1; b >= 1; b-- {
		f.freeBlocks = append(f.freeBlocks, b)
		f.isFree[b] = true
	}
	return f
}

// CapacityPages returns the raw page capacity of the device.
func (f *FTL) CapacityPages() int { return f.cfg.Blocks * f.pagesPerBlock }

// UsablePages returns the logical capacity: raw capacity minus the
// cleaner's reserve and the open block.
func (f *FTL) UsablePages() int {
	return (f.cfg.Blocks - f.cfg.Reserve - 1) * f.pagesPerBlock
}

// MappedPages returns the number of live logical pages.
func (f *FTL) MappedPages() int { return len(f.mapping) }

// Occupancy returns mapped pages over raw capacity.
func (f *FTL) Occupancy() float64 {
	return float64(len(f.mapping)) / float64(f.CapacityPages())
}

// Stats returns a copy of the counters.
func (f *FTL) Stats() Stats { return f.stats }

// Device exposes the underlying NAND device (wear inspection).
func (f *FTL) Device() *nand.Device { return f.dev }

// addr converts a flat physical page index within a block to a device
// address; index inverts it.
func (f *FTL) addr(block, idx int) nand.Addr {
	if f.cfg.Mode == wear.MLC {
		return nand.PageAddr(block, idx/2, idx%2)
	}
	return nand.PageAddr(block, idx, 0)
}

func (f *FTL) index(a nand.Addr) int {
	if f.cfg.Mode == wear.MLC {
		return a.Slot()*2 + a.Sub()
	}
	return a.Slot()
}

// Read serves a logical page and returns the device latency.
func (f *FTL) Read(logical int64) (sim.Duration, error) {
	a, ok := f.mapping[logical]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnmapped, logical)
	}
	res, err := f.dev.Read(a)
	if err != nil {
		return 0, err
	}
	f.stats.HostReads++
	f.stats.HostTime += res.Latency
	return res.Latency, nil
}

// Write stores a logical page out-of-place and returns the foreground
// latency. Cleaning triggered by the write is accounted as GC time.
func (f *FTL) Write(logical int64) (sim.Duration, error) {
	if _, ok := f.mapping[logical]; !ok && len(f.mapping) >= f.UsablePages() {
		return 0, fmt.Errorf("%w: %d pages mapped", ErrFull, len(f.mapping))
	}
	if err := f.ensureReserve(); err != nil {
		return 0, err
	}
	f.invalidate(logical)
	lat, err := f.appendPage(logical, false)
	if err != nil {
		return 0, err
	}
	f.stats.HostWrites++
	f.stats.HostTime += lat
	return lat, nil
}

// Trim discards a logical page (the host no longer needs it).
func (f *FTL) Trim(logical int64) {
	f.invalidate(logical)
}

func (f *FTL) invalidate(logical int64) {
	a, ok := f.mapping[logical]
	if !ok {
		return
	}
	f.reverse[a.Block()][f.index(a)] = -1
	f.validCount[a.Block()]--
	delete(f.mapping, logical)
}

// appendPage programs logical at the log head. Callers must have
// ensured reserve space.
func (f *FTL) appendPage(logical int64, gc bool) (sim.Duration, error) {
	if f.cursor >= f.pagesPerBlock {
		if len(f.freeBlocks) == 0 {
			return 0, fmt.Errorf("%w: reserve exhausted", ErrFull)
		}
		f.open = f.freeBlocks[len(f.freeBlocks)-1]
		f.freeBlocks = f.freeBlocks[:len(f.freeBlocks)-1]
		f.isFree[f.open] = false
		f.cursor = 0
	}
	a := f.addr(f.open, f.cursor)
	f.cursor++
	lat, err := f.dev.Program(a, uint64(logical))
	if err != nil {
		return 0, err
	}
	if gc {
		f.stats.GCTime += lat
	}
	f.mapping[logical] = a
	f.reverse[a.Block()][f.index(a)] = logical
	f.validCount[a.Block()]++
	return lat, nil
}

// ensureReserve cleans until the free-block reserve is met.
func (f *FTL) ensureReserve() error {
	guard := 0
	for len(f.freeBlocks) < f.cfg.Reserve {
		if err := f.clean(); err != nil {
			return err
		}
		guard++
		if guard > 2*f.cfg.Blocks {
			return fmt.Errorf("%w: cleaner cannot keep up", ErrFull)
		}
	}
	return nil
}

// clean collects the occupied block with the fewest live pages.
func (f *FTL) clean() error {
	victim, best := -1, 1<<30
	for b := 0; b < f.cfg.Blocks; b++ {
		if b == f.open || f.isFree[b] {
			continue
		}
		if f.validCount[b] < best {
			victim, best = b, f.validCount[b]
		}
	}
	if victim < 0 {
		return fmt.Errorf("%w: no GC victim", ErrFull)
	}
	if best >= f.pagesPerBlock {
		return fmt.Errorf("%w: victim fully valid (occupancy too high)", ErrFull)
	}
	for idx, logical := range f.reverse[victim] {
		if logical < 0 {
			continue
		}
		res, err := f.dev.Read(f.addr(victim, idx))
		if err != nil {
			return err
		}
		f.stats.GCTime += res.Latency
		f.invalidate(logical)
		if _, err := f.appendPage(logical, true); err != nil {
			return err
		}
		f.stats.GCRelocations++
	}
	lat, err := f.dev.Erase(victim)
	if err != nil {
		return err
	}
	f.stats.GCTime += lat
	f.stats.GCErases++
	for i := range f.reverse[victim] {
		f.reverse[victim][i] = -1
	}
	f.validCount[victim] = 0
	f.freeBlocks = append(f.freeBlocks, victim)
	f.isFree[victim] = true
	return nil
}

// Package nand models a dual-mode SLC/MLC NAND Flash device with the
// organisation of paper Figure 1(a): blocks of 64 physical page slots,
// where each slot holds one 2KB page in SLC mode or two 2KB pages in
// MLC mode, each page carrying a 64-byte spare area. The device
// enforces Flash physics — program only after erase, erase whole
// blocks, wear accumulating per write/erase cycle — and reports
// per-read bit-error counts from the wear model so the programmable
// controller above it (internal/core) can react.
//
// Pages hold opaque 64-bit tokens: the disk-cache simulator stores
// the identity of the cached disk page, not its bytes, exactly like
// the paper's trace-driven Flash disk cache simulator.
package nand

import (
	"errors"
	"fmt"
	"math"
	"unsafe"

	"flashdc/internal/fault"
	"flashdc/internal/sim"
	"flashdc/internal/wear"
)

// PageSize is the data area of one Flash page in bytes.
const PageSize = 2048

// SlotsPerBlock is the number of physical page slots per erase block:
// 64 SLC pages, or 128 MLC pages, per 128KB block.
const SlotsPerBlock = 64

// Timing holds device operation latencies (Table 3).
type Timing struct {
	ReadSLC, ReadMLC   sim.Duration
	WriteSLC, WriteMLC sim.Duration
	EraseSLC, EraseMLC sim.Duration
}

// DefaultTiming returns the latencies of Table 3.
func DefaultTiming() Timing {
	return Timing{
		ReadSLC:  25 * sim.Microsecond,
		ReadMLC:  50 * sim.Microsecond,
		WriteSLC: 200 * sim.Microsecond,
		WriteMLC: 680 * sim.Microsecond,
		EraseSLC: 1500 * sim.Microsecond,
		EraseMLC: 3300 * sim.Microsecond,
	}
}

// Read returns the read latency for a page in the given mode.
func (t Timing) Read(m wear.Mode) sim.Duration {
	if m == wear.SLC {
		return t.ReadSLC
	}
	return t.ReadMLC
}

// Write returns the program latency for a page in the given mode.
func (t Timing) Write(m wear.Mode) sim.Duration {
	if m == wear.SLC {
		return t.WriteSLC
	}
	return t.WriteMLC
}

// Erase returns the block erase latency given the block's dominant
// mode.
func (t Timing) Erase(m wear.Mode) sim.Duration {
	if m == wear.SLC {
		return t.EraseSLC
	}
	return t.EraseMLC
}

// Config describes a device instance.
type Config struct {
	// Blocks is the number of erase blocks.
	Blocks int
	// SigmaSpatial is the relative page-to-page oxide spread fed to
	// the wear model (Figure 6(b) sweeps 0 to 0.20).
	SigmaSpatial float64
	// InitialMode is the density every slot starts in. The paper's
	// design uses MLC parts that can switch pages to SLC.
	InitialMode wear.Mode
	// Seed drives wear sampling.
	Seed uint64
	// WearAcceleration multiplies the effective write/erase cycle
	// count when evaluating wear, letting lifetime-to-failure
	// experiments run in reasonable simulated volume. 0 means 1
	// (real time).
	WearAcceleration float64
	// Retention parameterises the retention-loss error process: pages
	// accumulate flips while they dwell programmed, measured against
	// the clock attached with AttachClock. The zero value disables it.
	Retention wear.RetentionParams
	// Disturb parameterises the read-disturb error process: block
	// reads add flips to the block's pages until the next erase. The
	// zero value disables it.
	Disturb wear.DisturbParams
	// Faults, when non-nil, is consulted on every Read, Program and
	// Erase to inject transient flips and operation failures.
	Faults *fault.Injector
	// FactoryBadBlocks are marked bad before first use, like the
	// shipped bad-block list of a real part. The controller must skip
	// them (Retired reports true for them from birth).
	FactoryBadBlocks []int
}

// BlocksForCapacity returns the number of blocks needed to reach the
// given byte capacity with every slot in the given mode.
func BlocksForCapacity(bytes int64, m wear.Mode) int {
	perBlock := int64(SlotsPerBlock) * PageSize
	if m == wear.MLC {
		perBlock *= 2
	}
	n := (bytes + perBlock - 1) / perBlock
	return int(n)
}

// Addr identifies one page as one number, Block<<7 | Slot<<1 | Sub: a
// block, a physical slot inside it, and the sub-page index (always 0
// in SLC mode; 0 or 1 in MLC mode).
type Addr int32

// MaxBlocks is the largest block count whose pages an Addr can name:
// Slot and Sub take the low 7 bits of the int32, leaving 24 for Block.
const MaxBlocks = 1 << 24

// PageAddr returns the address of sub-page sub of slot s of block b.
func PageAddr(b, s, sub int) Addr { return Addr(b<<7 | s<<1 | sub) }

// Block returns the erase block of a.
func (a Addr) Block() int { return int(a >> 7) }

// Slot returns the physical slot of a inside its block.
func (a Addr) Slot() int { return int(a>>1) & (SlotsPerBlock - 1) }

// Sub returns the sub-page index of a.
func (a Addr) Sub() int { return int(a & 1) }

// SlotIndex returns Block*SlotsPerBlock+Slot, the index of a's slot in
// a table kept one entry per slot, block by block.
func (a Addr) SlotIndex() int { return int(a >> 1) }

// String implements fmt.Stringer.
func (a Addr) String() string {
	return fmt.Sprintf("b%d/s%d.%d", a.Block(), a.Slot(), a.Sub())
}

// Device errors. ErrProgramFailed and ErrEraseFailed are operation
// status failures a real controller must expect and recover from;
// both are errors.Is-able through the wrapped returns.
var (
	ErrBadAddress     = errors.New("nand: address out of range")
	ErrNotErased      = errors.New("nand: programming a page that is not erased")
	ErrNotProgrammed  = errors.New("nand: reading a page that was never programmed")
	ErrRetired        = errors.New("nand: block is retired")
	ErrModeWhileInUse = errors.New("nand: mode change on a programmed slot")
	// ErrProgramFailed reports a program-status failure: the target
	// page is burned (unusable until the block is erased) but holds
	// garbage. The controller must remap the data elsewhere.
	ErrProgramFailed = errors.New("nand: program operation failed")
	// ErrEraseFailed reports an erase failure: the block keeps its
	// prior contents. Repeated erase failures mean a grown bad block.
	ErrEraseFailed = errors.New("nand: erase operation failed")
)

// SlotBytes is the device's state per physical slot, for callers that
// budget memory before building a device.
const SlotBytes = int64(unsafe.Sizeof(slotState{}))

type slotState struct {
	mode       wear.Mode
	programmed [2]bool
	// wearBits caches the wear share of the slot's error count, valid
	// while the block's erase count is below wearNext (DESIGN §9.6).
	// The zero value (wearNext 0) is never valid, so a new or
	// invalidated slot recomputes on its next use. Two int32s fill the
	// padding after mode and programmed, so the slot stays 56 bytes.
	wearBits int32
	wearNext int32
	data     [2]uint64
	wear     wear.PageWear
	// programmedAt is the simulated time each sub-page was last
	// programmed — the retention dwell clock. Meaningful only while
	// the sub-page is programmed and a clock is attached.
	programmedAt [2]sim.Time
}

type blockState struct {
	// mlcSlots counts the slots in MLC mode, so the block exposes
	// SlotsPerBlock+mlcSlots pages; SetMode keeps it current.
	mlcSlots   int
	eraseCount int
	// reads counts page reads served by this block since its last
	// erase — the read-disturb stress counter, cleared on erase.
	reads   int64
	retired bool
	// factoryBad marks a block bad from birth (shipped bad-block list).
	factoryBad bool
	// grownBad marks a block whose program/erase failure was
	// permanent: every later program and erase on it fails until the
	// controller retires it.
	grownBad bool
}

// Stats counts device operations and accumulated busy time, the raw
// material for the power model.
type Stats struct {
	Reads, Programs, Erases int64
	ReadTime                sim.Duration
	ProgramTime             sim.Duration
	EraseTime               sim.Duration
}

// BusyTime returns the total time the device spent active.
func (s Stats) BusyTime() sim.Duration {
	return s.ReadTime + s.ProgramTime + s.EraseTime
}

// Merge adds other's counters into s, combining the activity of
// independent devices (one per shard) into a fleet total.
func (s *Stats) Merge(other Stats) {
	s.Reads += other.Reads
	s.Programs += other.Programs
	s.Erases += other.Erases
	s.ReadTime += other.ReadTime
	s.ProgramTime += other.ProgramTime
	s.EraseTime += other.EraseTime
}

// Device is a dual-mode NAND Flash chip. It is not safe for concurrent
// use; the simulators drive it from a single goroutine.
type Device struct {
	cfg    Config
	timing Timing
	model  *wear.Model
	blocks []blockState
	// slots holds every block's slots in one array, block by block:
	// slot s of block b is slots[b*SlotsPerBlock+s], Addr.SlotIndex.
	slots []slotState
	// livePages counts the pages of every block not retired: the
	// device's capacity, counted by SetMode, Retire and recount rather
	// than walked.
	livePages int64
	stats     Stats
	// clock, when attached, timestamps programs so the retention
	// process can measure dwell. A clockless device never sees
	// retention errors (dwell stays zero).
	clock *sim.Clock
}

// New builds a device. It panics if the configuration is degenerate
// or has more than MaxBlocks blocks; sizing a device is a programming
// decision in the simulators.
func New(cfg Config) *Device {
	if cfg.Blocks <= 0 {
		panic("nand: device needs at least one block")
	}
	if cfg.Blocks > MaxBlocks {
		panic(fmt.Sprintf("nand: %d blocks exceed the %d an address can name", cfg.Blocks, MaxBlocks))
	}
	if cfg.WearAcceleration == 0 {
		cfg.WearAcceleration = 1
	}
	if cfg.WearAcceleration < 0 {
		panic("nand: negative wear acceleration")
	}
	if math.IsNaN(cfg.WearAcceleration) || math.IsInf(cfg.WearAcceleration, 0) {
		panic("nand: non-finite wear acceleration")
	}
	d := &Device{
		cfg:    cfg,
		timing: DefaultTiming(),
		model:  wear.NewModel(),
		blocks: make([]blockState, cfg.Blocks),
		slots:  make([]slotState, cfg.Blocks*SlotsPerBlock),
	}
	rng := sim.NewRNG(cfg.Seed)
	for i := range d.slots {
		d.slots[i] = slotState{
			mode: cfg.InitialMode,
			wear: d.model.SamplePageWear(rng, cfg.SigmaSpatial),
		}
	}
	for _, b := range cfg.FactoryBadBlocks {
		if b >= 0 && b < len(d.blocks) {
			d.blocks[b].factoryBad = true
			d.blocks[b].retired = true
		}
	}
	d.recount()
	return d
}

// recount rebuilds the per-block MLC slot counts from the slot modes,
// and the live-page count from them and the retirement flags, at
// construction and after a checkpoint restore.
func (d *Device) recount() {
	d.livePages = 0
	for b := range d.blocks {
		blk, slots := &d.blocks[b], d.blockSlots(b)
		blk.mlcSlots = 0
		for i := range slots {
			if slots[i].mode == wear.MLC {
				blk.mlcSlots++
			}
		}
		if !blk.retired {
			d.livePages += int64(d.PagesPerBlock(b))
		}
	}
}

// blockSlots returns block b's slots.
func (d *Device) blockSlots(b int) []slotState {
	return d.slots[b*SlotsPerBlock : (b+1)*SlotsPerBlock]
}

// AttachClock gives the device a simulated time base for retention
// dwell accounting. Programs performed before a clock is attached (or
// with none) dwell at the epoch.
func (d *Device) AttachClock(c *sim.Clock) { d.clock = c }

// now returns the current simulated time, or the epoch when no clock
// is attached.
func (d *Device) now() sim.Time {
	if d.clock == nil {
		return 0
	}
	return d.clock.Now()
}

// BlockReads returns the read-disturb stress counter of block b: page
// reads served since its last erase.
func (d *Device) BlockReads(b int) int64 { return d.blocks[b].reads }

// FaultInjector returns the attached fault injector (nil when the
// device runs fault-free).
func (d *Device) FaultInjector() *fault.Injector { return d.cfg.Faults }

// FactoryBad reports whether block b was bad from birth.
func (d *Device) FactoryBad(b int) bool { return d.blocks[b].factoryBad }

// GrownBad reports whether block b suffered a permanent failure during
// operation.
func (d *Device) GrownBad(b int) bool { return d.blocks[b].grownBad }

// Blocks returns the number of erase blocks.
func (d *Device) Blocks() int { return len(d.blocks) }

// Stats returns a copy of the operation counters.
func (d *Device) Stats() Stats { return d.stats }

func (d *Device) slot(a Addr) (*blockState, *slotState, error) {
	if a < 0 || a.SlotIndex() >= len(d.slots) {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadAddress, a)
	}
	sl := &d.slots[a.SlotIndex()]
	if a.Sub() == 1 && sl.mode != wear.MLC {
		return nil, nil, fmt.Errorf("%w: %v in %v mode", ErrBadAddress, a, sl.mode)
	}
	return &d.blocks[a.Block()], sl, nil
}

// Mode returns the density mode of the slot containing a.
func (d *Device) Mode(a Addr) wear.Mode {
	_, sl, err := d.slot(a &^ 1) // sub-page 0 of a's slot
	if err != nil {
		panic(err)
	}
	return sl.mode
}

// EraseCount returns the number of erase cycles block b has endured.
func (d *Device) EraseCount(b int) int {
	return d.blocks[b].eraseCount
}

// Retired reports whether block b was permanently removed.
func (d *Device) Retired(b int) bool { return d.blocks[b].retired }

// Retire permanently removes block b from service (paper section 5.2:
// a block at both the ECC limit and SLC mode is "removed permanently").
func (d *Device) Retire(b int) {
	if !d.blocks[b].retired {
		d.blocks[b].retired = true
		d.livePages -= int64(d.PagesPerBlock(b))
	}
}

// ReadResult reports the outcome of a page read before error
// correction.
type ReadResult struct {
	// Data is the stored token.
	Data uint64
	// BitErrors is how many cells read wrong in this page — organic
	// wear-out plus any injected transient flips; the controller
	// compares it against the configured ECC strength.
	BitErrors int
	// Injected is the transient (fault-injected) share of BitErrors.
	// Unlike wear errors, injected flips re-sample on every read, so a
	// retry can come back clean.
	Injected int
	// Latency is the raw array access time (excludes ECC decode).
	Latency sim.Duration
}

// Read senses one page. The token is returned even when BitErrors is
// high; deciding recoverability is the controller's job.
func (d *Device) Read(a Addr) (ReadResult, error) {
	blk, sl, err := d.slot(a)
	if err != nil {
		return ReadResult{}, err
	}
	if blk.retired {
		return ReadResult{}, fmt.Errorf("%w: block %d", ErrRetired, a.Block())
	}
	if !sl.programmed[a.Sub()] {
		return ReadResult{}, fmt.Errorf("%w: %v", ErrNotProgrammed, a)
	}
	lat := d.timing.Read(sl.mode)
	d.stats.Reads++
	d.stats.ReadTime += lat
	injected := d.cfg.Faults.ReadFlips()
	res := ReadResult{
		Data:      sl.data[a.Sub()],
		BitErrors: d.organicBits(blk, sl, a.Sub()) + injected,
		Injected:  injected,
		Latency:   lat,
	}
	// This read disturbs the block's pages from the next read on; a
	// read never counts against itself.
	blk.reads++
	return res, nil
}

// organicBits returns the deterministic error count of a page: wear
// plus retention loss plus accumulated read disturb. Unlike injected
// flips these do not re-sample per read, so retries cannot clear them
// — only a rewrite (retention, disturb) or reconfiguration (wear)
// helps, which is exactly what the refresh policy exploits.
func (d *Device) organicBits(blk *blockState, sl *slotState, sub int) int {
	bits := d.wearBits(blk, sl)
	if d.cfg.Retention.Enabled() && sl.programmed[sub] {
		bits += d.cfg.Retention.Bits(d.now().Sub(sl.programmedAt[sub]), d.cycles(blk.eraseCount), sl.mode)
	}
	if d.cfg.Disturb.Enabled() {
		bits += d.cfg.Disturb.Bits(blk.reads, d.cycles(blk.eraseCount), sl.mode)
	}
	if bits > wear.CellsPerPage {
		bits = wear.CellsPerPage
	}
	return bits
}

// BitErrors returns the current deterministic error count of a page —
// wear, retention and read disturb combined — without performing (or
// charging for) a read. This is the scrubber's prediction surface.
func (d *Device) BitErrors(a Addr) int {
	blk, sl, err := d.slot(a)
	if err != nil {
		panic(err)
	}
	return d.organicBits(blk, sl, a.Sub())
}

// WearBitErrors returns only the write/erase wear share of a page's
// error count, excluding retention and disturb. The refresh policy
// compares it against BitErrors to tell damage that needs a stronger
// configuration (wear) from damage a plain rewrite cures.
func (d *Device) WearBitErrors(a Addr) int {
	blk, sl, err := d.slot(a)
	if err != nil {
		panic(err)
	}
	return d.wearBits(blk, sl)
}

// cycles returns the effective write/erase cycle count of erase count
// n: n scaled by the configured wear acceleration.
func (d *Device) cycles(n int) float64 {
	return float64(n) * d.cfg.WearAcceleration
}

// wearBits returns the wear share of a slot's error count. The count
// is a step function of the block's erase count, so the slot caches it
// together with the erase count at which it next changes; while the
// block has not reached that count, this is one integer compare.
func (d *Device) wearBits(blk *blockState, sl *slotState) int {
	if blk.eraseCount >= int(sl.wearNext) {
		d.rewear(blk.eraseCount, sl)
	}
	return int(sl.wearBits)
}

// rewear recomputes sl's cached wear count at erase count e and the
// first erase count above e at which it changes. It is the only caller
// of FailedBits. A never-erased slot has no wear and costs no math.
func (d *Device) rewear(e int, sl *slotState) {
	if e == 0 {
		sl.wearBits, sl.wearNext = 0, 1
		return
	}
	f := func(n int) int { return sl.wear.FailedBits(d.model, d.cycles(n), sl.mode) }
	bits := f(e)
	sl.wearBits = int32(bits)
	est := sl.wear.CyclesUntilBits(d.model, bits, sl.mode) / d.cfg.WearAcceleration
	if math.IsInf(est, 1) && bits < wear.CellsPerPage {
		// The inverse has no finite answer for the last cell, yet the
		// forward count can still round up to CellsPerPage, some 1e24
		// cycles out: re-evaluate on every erase from here on.
		sl.wearNext = int32(min(e+1, math.MaxInt32))
		return
	}
	// Start from the inverse's estimate and confirm it against the
	// forward function, which is monotone in e: n is the first change
	// point once f(n-1) == bits and f(n) != bits. Stepping down stops
	// above e, where f(e) == bits. A change point beyond MaxInt32 (or
	// +Inf: never) is cached as MaxInt32, so the slot re-evaluates
	// from there on.
	n := e + 1
	if est > float64(n) {
		n = int(math.Min(math.Ceil(est), math.MaxInt32))
	}
	for n-1 > e && f(n-1) != bits {
		n--
	}
	for n < math.MaxInt32 && f(n) == bits {
		n++
	}
	sl.wearNext = int32(min(n, math.MaxInt32))
}

// Program writes the token into a free (erased) page and
// returns the program latency.
func (d *Device) Program(a Addr, data uint64) (sim.Duration, error) {
	blk, sl, err := d.slot(a)
	if err != nil {
		return 0, err
	}
	if blk.retired {
		return 0, fmt.Errorf("%w: block %d", ErrRetired, a.Block())
	}
	if sl.programmed[a.Sub()] {
		return 0, fmt.Errorf("%w: %v", ErrNotErased, a)
	}
	lat := d.timing.Write(sl.mode)
	d.stats.Programs++
	d.stats.ProgramTime += lat
	fail := blk.grownBad
	if !fail {
		var grown bool
		fail, grown = d.cfg.Faults.ProgramFails()
		if grown {
			blk.grownBad = true
		}
	}
	if fail {
		// The page is burned — unusable until erase — but holds no
		// valid data. The controller must remap elsewhere.
		sl.programmed[a.Sub()] = true
		sl.data[a.Sub()] = 0
		sl.programmedAt[a.Sub()] = d.now()
		return lat, fmt.Errorf("%w: %v", ErrProgramFailed, a)
	}
	sl.programmed[a.Sub()] = true
	sl.data[a.Sub()] = data
	sl.programmedAt[a.Sub()] = d.now()
	return lat, nil
}

// Peek returns the stored token of a programmed page without charging
// a device operation or consulting the fault injector. It exists for
// integrity audits, not the data path.
func (d *Device) Peek(a Addr) (uint64, bool) {
	_, sl, err := d.slot(a)
	if err != nil || !sl.programmed[a.Sub()] {
		return 0, false
	}
	return sl.data[a.Sub()], true
}

// Programmed reports whether page a currently holds data.
func (d *Device) Programmed(a Addr) bool {
	_, sl, err := d.slot(a)
	if err != nil {
		return false
	}
	return sl.programmed[a.Sub()]
}

// SetMode changes the density of one slot. The slot must be erased
// (neither sub-page programmed): the paper applies new page settings
// "on the next erase and write access".
func (d *Device) SetMode(block, slot int, m wear.Mode) error {
	blk, sl, err := d.slot(PageAddr(block, slot, 0))
	if err != nil {
		return err
	}
	if sl.programmed[0] || sl.programmed[1] {
		return fmt.Errorf("%w: b%d/s%d", ErrModeWhileInUse, block, slot)
	}
	// The cached wear count belongs to the old mode.
	sl.wearNext = 0
	pages := blk.mlcSlots
	if sl.mode == wear.MLC {
		blk.mlcSlots--
	}
	if m == wear.MLC {
		blk.mlcSlots++
	}
	if !blk.retired {
		d.livePages += int64(blk.mlcSlots - pages)
	}
	sl.mode = m
	return nil
}

// Erase wipes block b, makes every page free again, and advances the
// block's wear by one write/erase cycle. The latency reflects the
// block's dominant density (MLC blocks erase slower, Table 3).
func (d *Device) Erase(b int) (sim.Duration, error) {
	if b < 0 || b >= len(d.blocks) {
		return 0, fmt.Errorf("%w: block %d", ErrBadAddress, b)
	}
	blk := &d.blocks[b]
	if blk.retired {
		return 0, fmt.Errorf("%w: block %d", ErrRetired, b)
	}
	mode := wear.SLC
	if blk.mlcSlots > 0 {
		mode = wear.MLC
	}
	lat := d.timing.Erase(mode)
	d.stats.Erases++
	d.stats.EraseTime += lat
	fail := blk.grownBad
	if !fail {
		var grown bool
		fail, grown = d.cfg.Faults.EraseFails()
		if grown {
			blk.grownBad = true
		}
	}
	if fail {
		// The block keeps its prior contents; no wear cycle accrues.
		return lat, fmt.Errorf("%w: block %d", ErrEraseFailed, b)
	}
	slots := d.blockSlots(b)
	for i := range slots {
		sl := &slots[i]
		sl.programmed[0] = false
		sl.programmed[1] = false
		sl.data[0] = 0
		sl.data[1] = 0
		sl.programmedAt[0] = 0
		sl.programmedAt[1] = 0
	}
	blk.eraseCount++
	// Erasing re-programs every cell, clearing accumulated disturb.
	blk.reads = 0
	return lat, nil
}

// PagesPerBlock returns how many addressable pages block b currently
// exposes given its per-slot modes (between 64 all-SLC and 128
// all-MLC).
func (d *Device) PagesPerBlock(b int) int {
	return SlotsPerBlock + d.blocks[b].mlcSlots
}

// CapacityBytes returns the device's current addressable data
// capacity across non-retired blocks, which shrinks as slots move to
// SLC mode or blocks retire.
func (d *Device) CapacityBytes() int64 { return d.livePages * PageSize }

// ResetStats zeroes the operation counters (e.g. after cache warmup);
// wear state is untouched.
func (d *Device) ResetStats() { d.stats = Stats{} }

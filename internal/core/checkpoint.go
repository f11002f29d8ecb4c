package core

import (
	"fmt"

	"flashdc/internal/ecc"
	"flashdc/internal/fault"
	"flashdc/internal/nand"
	"flashdc/internal/policy"
	"flashdc/internal/sim"
	"flashdc/internal/tables"
	"flashdc/internal/wear"
)

// Cache-state images: a CacheCheckpoint is the one serialised form of
// a cache. A campaign checkpoint (Checkpoint/Restore) carries all of it,
// so a multi-year wear campaign can stop and resume with the
// continuation bit-identical to an unbroken run: exact region LRU
// recency, allocator cursors and heuristic accumulators, the fault
// injector's RNG position, retention dwell stamps, per-block disturb
// counters and the scrub cursor. The metadata image (SaveMetadata,
// persist.go) is the same value with its runtime-only fields cleared,
// so both paths share one restore and one validator, checkCheckpoint.
//
// The wear trajectories (per-page bit-error curves) are intentionally
// NOT serialised: they are a pure function of (Config.Seed, geometry)
// and the restored erase counts, so New rebuilds them exactly.

// CheckpointBlock is one erase block's management state.
type CheckpointBlock struct {
	State                 uint8
	Region                int
	Valid, Consumed       int
	CursorSlot, CursorSub int
	AccessSum, LastErase  uint64
	ProgFails             int
	Status                tables.BlockStatus
}

// CheckpointRegion is one allocation region's state. Order matters
// everywhere: Free is popped from the end, LRU is listed front (most
// recently used) to back.
type CheckpointRegion struct {
	Free   []int
	Open   int
	LRU    []int
	Blocks int
}

// CacheCheckpoint is the complete state of one Flash cache.
type CacheCheckpoint struct {
	FlashBytes int64

	Slots   [][]tables.SlotStatus
	Blocks  []CheckpointBlock
	Regions []CheckpointRegion
	FGST    tables.FGST
	Device  nand.DeviceCheckpoint

	Stats        Stats
	Seq, GCCheck uint64
	TotalValid   int64
	MarginalFreq float64
	Dead         bool
	BusyUntil    sim.Time

	ScrubTick             uint64
	ScrubBlock, ScrubSlot int
	ScrubSub              int

	// Injector is the fault injector's RNG/counter state;
	// HasInjector false records that the run had no injector.
	Injector    fault.InjectorState
	HasInjector bool

	// AdmitState is the admission policy's filter state in canonical
	// (LBA-sorted, map-free) form, so checkpoint bytes are a pure
	// function of simulation history. Empty under the default paper
	// admission; restoring a non-empty state into a cache configured
	// with the paper policy is rejected as a configuration mismatch.
	AdmitState []policy.AdmitEntry
}

// Checkpoint captures the cache's complete state. The cache must be
// quiescent (no in-flight operation). It fails only on non-default
// scheduler geometry: the per-channel/per-bank
// timelines and pending coalescing-buffer flushes are not serialised
// (BusyUntil carries the whole story only for the serial 1×1 device),
// so campaigns checkpoint at the default geometry or not at all —
// fdcsim rejects the combination up front.
func (c *Cache) Checkpoint() (*CacheCheckpoint, error) {
	if c.sched.Active() {
		return nil, fmt.Errorf("core: checkpointing is not supported with a non-default NAND scheduler (channels/banks/write buffer)")
	}
	return c.checkpoint(), nil
}

// checkpoint captures the cache's complete state without the scheduler
// guard: the metadata image clears the scheduler's timeline anyway.
func (c *Cache) checkpoint() *CacheCheckpoint {
	ck := &CacheCheckpoint{
		FlashBytes: c.cfg.FlashBytes,
		Slots:      make([][]tables.SlotStatus, len(c.meta)),
		Blocks:     make([]CheckpointBlock, len(c.meta)),
		Regions:    make([]CheckpointRegion, len(c.regions)),
		FGST:       c.fgst,
		Device:     c.dev.Checkpoint(),

		Stats:        c.stats,
		Seq:          c.seq,
		GCCheck:      c.gcCheck,
		TotalValid:   c.totalValid,
		MarginalFreq: c.marginalFreq,
		Dead:         c.dead,
		BusyUntil:    c.sched.Horizon(),

		ScrubTick:  c.scrubTick,
		ScrubBlock: c.scrubBlock,
		ScrubSlot:  c.scrubSlot,
		ScrubSub:   c.scrubSub,
	}
	if inj := c.dev.FaultInjector(); inj != nil {
		ck.Injector = inj.Checkpoint()
		ck.HasInjector = true
	}
	ck.AdmitState = c.admitPol.checkpoint()
	for b := range c.meta {
		ck.Slots[b] = make([]tables.SlotStatus, nand.SlotsPerBlock)
		for s := range ck.Slots[b] {
			ck.Slots[b][s] = *c.fpst.Slot(nand.PageAddr(b, s, 0))
		}
		m := &c.meta[b]
		ck.Blocks[b] = CheckpointBlock{
			State:      uint8(m.state),
			Region:     m.region,
			Valid:      m.valid,
			Consumed:   m.consumed,
			CursorSlot: m.cursorSlot,
			CursorSub:  m.cursorSub,
			AccessSum:  m.accessSum,
			LastErase:  m.lastEraseSeq,
			ProgFails:  m.progFails,
			Status:     *c.fbst.At(b),
		}
	}
	for i, r := range c.regions {
		cr := CheckpointRegion{
			Free:   append([]int(nil), r.free...),
			Open:   r.open,
			Blocks: r.blocks,
		}
		for b := int(r.head); b != none; b = int(c.meta[b].next) {
			cr.LRU = append(cr.LRU, b)
		}
		ck.Regions[i] = cr
	}
	return ck
}

// maxEraseCount bounds the per-block erase count a checkpoint may
// carry. Legitimate states stay far below it (SLC endurance is 100k
// cycles); the bound rejects crafted wear that no device survives.
const maxEraseCount = 1 << 20

// checkCheckpoint rejects a checkpoint whose dimensions do not fit the
// cache, whose cursors, block indices, ECC strengths or density modes
// are out of range (values the next replay would index with), whose
// region lists name a block twice (restore would link it into a loop),
// or whose tables contradict the device or each other in ways the
// final integrity audit does not see. It runs before any state changes.
func (c *Cache) checkCheckpoint(ck *CacheCheckpoint) error {
	if ck.FlashBytes != c.cfg.FlashBytes {
		return fmt.Errorf("core: checkpoint for %dB Flash, config says %dB",
			ck.FlashBytes, c.cfg.FlashBytes)
	}
	if len(ck.Slots) != len(c.meta) || len(ck.Blocks) != len(c.meta) || len(ck.Device.Blocks) != len(c.meta) {
		return fmt.Errorf("core: checkpoint for %d/%d/%d blocks, cache has %d",
			len(ck.Slots), len(ck.Blocks), len(ck.Device.Blocks), len(c.meta))
	}
	if len(ck.Regions) != len(c.regions) {
		return fmt.Errorf("core: checkpoint has %d regions, cache has %d",
			len(ck.Regions), len(c.regions))
	}
	for b := range ck.Blocks {
		if err := c.checkBlock(b, &ck.Blocks[b], &ck.Device.Blocks[b], ck.Slots[b]); err != nil {
			return fmt.Errorf("core: checkpoint %v", err)
		}
	}
	listed := make([]bool, len(c.meta))
	for i, cr := range ck.Regions {
		open := []int{cr.Open}
		if cr.Open == none {
			open = nil
		}
		for _, list := range [][]int{cr.Free, cr.LRU, open} {
			for _, b := range list {
				if b < 0 || b >= len(c.meta) {
					return fmt.Errorf("core: checkpoint region %d lists block %d of %d", i, b, len(c.meta))
				}
				if listed[b] {
					return fmt.Errorf("core: checkpoint lists block %d more than once", b)
				}
				listed[b] = true
			}
		}
	}
	if ck.ScrubBlock < 0 || ck.ScrubBlock > len(c.meta) ||
		ck.ScrubSlot < 0 || ck.ScrubSlot >= nand.SlotsPerBlock ||
		ck.ScrubSub < 0 || ck.ScrubSub > 1 {
		return fmt.Errorf("core: checkpoint scrub cursor b%d/s%d.%d out of range",
			ck.ScrubBlock, ck.ScrubSlot, ck.ScrubSub)
	}
	return nil
}

// checkBlock rejects one block's allocator, FBST, device and page
// state when no cache can hold it.
func (c *Cache) checkBlock(b int, cb *CheckpointBlock, db *nand.BlockCheckpoint, slots []tables.SlotStatus) error {
	state := blockLifecycle(cb.State)
	if state > blockRetired {
		return fmt.Errorf("block %d in impossible state %d", b, cb.State)
	}
	if cb.Region < 0 || cb.Region >= len(c.regions) {
		return fmt.Errorf("block %d in region %d of %d", b, cb.Region, len(c.regions))
	}
	if cb.CursorSlot < 0 || cb.CursorSlot > nand.SlotsPerBlock || cb.CursorSub < 0 || cb.CursorSub > 1 {
		return fmt.Errorf("block %d cursor %d/%d out of range", b, cb.CursorSlot, cb.CursorSub)
	}
	if db.EraseCount < 0 || db.EraseCount > maxEraseCount {
		return fmt.Errorf("block %d erase count %d out of range", b, db.EraseCount)
	}
	if db.Reads < 0 {
		return fmt.Errorf("block %d read count %d is negative", b, db.Reads)
	}
	if st := cb.Status; st.TotalECC < 0 || st.TotalSLC < 0 {
		return fmt.Errorf("block %d has negative wear statistics", b)
	}
	if (state == blockRetired) != db.Retired {
		return fmt.Errorf("block %d in state %d but device retirement is %v", b, cb.State, db.Retired)
	}
	if len(slots) != nand.SlotsPerBlock || len(db.Slots) != nand.SlotsPerBlock {
		return fmt.Errorf("block %d has %d/%d slots, want %d", b, len(slots), len(db.Slots), nand.SlotsPerBlock)
	}
	// A cursor at sub-page 1 is the second half of an MLC slot the
	// allocator will program next.
	if cb.CursorSub == 1 && (cb.CursorSlot == nand.SlotsPerBlock || db.Slots[cb.CursorSlot].Mode != wear.MLC) {
		return fmt.Errorf("block %d cursor %d/1 is not inside an MLC slot", b, cb.CursorSlot)
	}
	for s, slot := range slots {
		if err := c.checkSlot(b, s, &slot, db.Slots[s].Mode); err != nil {
			return err
		}
		if (state == blockFree || state == blockRetired) && (slot.Pages[0].Valid || slot.Pages[1].Valid) {
			return fmt.Errorf("block %d in state %d holds a valid page in slot %d", b, cb.State, s)
		}
	}
	return nil
}

// checkSlot rejects a slot's state when its ECC strengths or densities
// fall outside what this cache can hold (strengths up to the
// controller's limit, or up to the pinned strength of a ForcedStrength
// cache beyond it), a valid page caches a negative LBA, or a valid
// second sub-page sits in a slot the device holds as SLC. mode is the
// device's current density for the slot.
func (c *Cache) checkSlot(b, s int, slot *tables.SlotStatus, mode wear.Mode) error {
	if mode > wear.MLC || slot.StagedMode > wear.MLC {
		return fmt.Errorf("slot b%d/s%d density mode %d, staged %d, out of range", b, s, mode, slot.StagedMode)
	}
	limit := max(ecc.MaxStrength, c.cfg.ForcedStrength)
	for sub, st := range slot.Pages {
		if st.Strength < 1 || st.Strength > limit || st.StagedStrength < 1 || st.StagedStrength > limit {
			return fmt.Errorf("page b%d/s%d/%d ECC strength %d/%d out of range", b, s, sub, st.Strength, st.StagedStrength)
		}
		if st.Valid && st.LBA < 0 {
			return fmt.Errorf("page b%d/s%d/%d caches negative LBA %d", b, s, sub, st.LBA)
		}
	}
	if mode != wear.MLC && slot.Pages[1].Valid {
		return fmt.Errorf("SLC slot b%d/s%d claims a second sub-page", b, s)
	}
	return nil
}

// Restore overwrites the cache's state with a checkpoint taken from a
// cache built with the same configuration. The receiver should be
// fresh from New (with any clock already attached); mid-run restores
// would leak the previous contents' event state. checkCheckpoint and
// the final integrity audit reject a checkpoint that does not fit the
// configuration, before and after applying it respectively.
func (c *Cache) Restore(ck *CacheCheckpoint) error {
	if c.sched.Active() {
		return fmt.Errorf("core: restoring into a non-default NAND scheduler (channels/banks/write buffer) is not supported")
	}
	return c.restore(ck)
}

// restore applies a checkpoint without the scheduler guard. A fresh
// scheduler restored to a zero BusyUntil is exactly the state a power
// cycle leaves, which is all the metadata image asks of it.
func (c *Cache) restore(ck *CacheCheckpoint) error {
	if err := c.checkCheckpoint(ck); err != nil {
		return err
	}
	if err := c.dev.Restore(ck.Device); err != nil {
		return fmt.Errorf("core: restoring device: %w", err)
	}
	inj := c.dev.FaultInjector()
	if ck.HasInjector != (inj != nil) {
		return fmt.Errorf("core: checkpoint injector presence %v, config says %v",
			ck.HasInjector, inj != nil)
	}
	if inj != nil {
		if err := inj.Restore(ck.Injector); err != nil {
			return fmt.Errorf("core: restoring fault injector: %w", err)
		}
	}
	if err := c.admitPol.restore(ck.AdmitState); err != nil {
		return fmt.Errorf("core: restoring admission policy state: %w", err)
	}

	c.fcht = tables.NewFCHT(c.fpst)
	for b := range c.meta {
		for s, slot := range ck.Slots[b] {
			*c.fpst.Slot(nand.PageAddr(b, s, 0)) = slot
			for sub, st := range slot.Pages {
				if st.Valid {
					c.fcht.Put(st.LBA, nand.PageAddr(b, s, sub))
				}
			}
		}
		cb := &ck.Blocks[b]
		m := &c.meta[b]
		m.state = blockLifecycle(cb.State)
		m.region = cb.Region
		m.valid = cb.Valid
		m.consumed = cb.Consumed
		m.cursorSlot = cb.CursorSlot
		m.cursorSub = cb.CursorSub
		m.accessSum = cb.AccessSum
		m.lastEraseSeq = cb.LastErase
		m.progFails = cb.ProgFails
		m.prev, m.next = none, none
		*c.fbst.At(b) = cb.Status
	}
	for i, r := range c.regions {
		cr := &ck.Regions[i]
		r.free = append(r.free[:0], cr.Free...)
		r.open = cr.Open
		r.blocks = cr.Blocks
		r.head, r.tail = none, none
		for i := len(cr.LRU) - 1; i >= 0; i-- {
			c.pushFront(r, cr.LRU[i]) // back to front keeps cr.LRU's order
		}
	}
	c.retally()
	c.fgst = ck.FGST
	c.stats = ck.Stats
	c.seq = ck.Seq
	c.gcCheck = ck.GCCheck
	c.totalValid = ck.TotalValid
	c.marginalFreq = ck.MarginalFreq
	c.dead = ck.Dead
	c.sched.SetBusy(ck.BusyUntil)
	c.scrubTick = ck.ScrubTick
	c.scrubBlock = ck.ScrubBlock
	c.scrubSlot = ck.ScrubSlot
	c.scrubSub = ck.ScrubSub

	if err := c.CheckIntegrity(); err != nil {
		return fmt.Errorf("core: checkpoint fails integrity audit (wrong configuration?): %w", err)
	}
	return nil
}

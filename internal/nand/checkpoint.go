package nand

import (
	"fmt"

	"flashdc/internal/sim"
	"flashdc/internal/wear"
)

// Checkpoint support: a campaign checkpoint must carry everything a
// fresh Device cannot re-derive from its Config. Per-page wear quality
// offsets are deliberately absent — New samples them deterministically
// from (Seed, SigmaSpatial, Blocks), so restoring into a device built
// from the identical Config reproduces them bit-for-bit.

// SlotCheckpoint is the restorable state of one physical page slot.
type SlotCheckpoint struct {
	Mode         wear.Mode
	Programmed   [2]bool
	Data         [2]uint64
	ProgrammedAt [2]sim.Time
}

// BlockCheckpoint is the restorable state of one erase block.
type BlockCheckpoint struct {
	Slots      []SlotCheckpoint
	EraseCount int
	Reads      int64
	Retired    bool
	FactoryBad bool
	GrownBad   bool
}

// DeviceCheckpoint is the restorable state of a whole device.
type DeviceCheckpoint struct {
	Blocks []BlockCheckpoint
	Stats  Stats
}

// Checkpoint captures the device state.
func (d *Device) Checkpoint() DeviceCheckpoint {
	ck := DeviceCheckpoint{
		Blocks: make([]BlockCheckpoint, len(d.blocks)),
		Stats:  d.stats,
	}
	for b := range d.blocks {
		blk := &d.blocks[b]
		slots := d.blockSlots(b)
		bc := BlockCheckpoint{
			Slots:      make([]SlotCheckpoint, len(slots)),
			EraseCount: blk.eraseCount,
			Reads:      blk.reads,
			Retired:    blk.retired,
			FactoryBad: blk.factoryBad,
			GrownBad:   blk.grownBad,
		}
		for s := range slots {
			sl := &slots[s]
			bc.Slots[s] = SlotCheckpoint{
				Mode:         sl.mode,
				Programmed:   sl.programmed,
				Data:         sl.data,
				ProgrammedAt: sl.programmedAt,
			}
		}
		ck.Blocks[b] = bc
	}
	return ck
}

// Restore overwrites the device state with a checkpoint taken from a
// device of identical geometry. Wear trajectories are untouched: they
// are a pure function of the Config both devices were built from.
func (d *Device) Restore(ck DeviceCheckpoint) error {
	if len(ck.Blocks) != len(d.blocks) {
		return fmt.Errorf("nand: checkpoint has %d blocks, device has %d", len(ck.Blocks), len(d.blocks))
	}
	for b := range ck.Blocks {
		if len(ck.Blocks[b].Slots) != SlotsPerBlock {
			return fmt.Errorf("nand: checkpoint block %d has %d slots, device has %d", b, len(ck.Blocks[b].Slots), SlotsPerBlock)
		}
	}
	for b := range ck.Blocks {
		bc := &ck.Blocks[b]
		blk := &d.blocks[b]
		blk.eraseCount = bc.EraseCount
		blk.reads = bc.Reads
		blk.retired = bc.Retired
		blk.factoryBad = bc.FactoryBad
		blk.grownBad = bc.GrownBad
		slots := d.blockSlots(b)
		for s := range bc.Slots {
			sc := &bc.Slots[s]
			sl := &slots[s]
			sl.mode = sc.Mode
			sl.programmed = sc.Programmed
			sl.data = sc.Data
			sl.programmedAt = sc.ProgrammedAt
			// The cached wear count may belong to another erase count
			// or mode.
			sl.wearNext = 0
		}
	}
	d.recount()
	d.stats = ck.Stats
	return nil
}

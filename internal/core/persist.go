package core

import (
	"errors"
	"fmt"
	"io"

	"flashdc/internal/envelope"
	"flashdc/internal/fault"
	"flashdc/internal/nand"
	"flashdc/internal/sim"
)

// Metadata persistence: the paper keeps the management tables in DRAM
// at run time but sources them from the hard disk ("These tables are
// read from the hard disk drive and stored in DRAM at run-time",
// section 3). SaveMetadata serialises the cache so it can shut down and
// resume with its Flash contents intact — Flash is non-volatile, only
// the DRAM tables need reloading.
//
// The image is the campaign checkpoint (CacheCheckpoint) with the
// fields a power cycle does not keep cleared: the statistics (except
// the retired-block count), the device operation counters, retention
// dwell stamps, the scheduler horizon, the scrub cadence and cursor,
// the fault injector's stream and the admission filter. Everything
// else — FCHT/FPST/FBST/FGST, allocator cursors, LRU recency, erase
// and disturb counts — comes back as saved, through the same restore
// and the same validator (checkCheckpoint) as a campaign checkpoint.
//
// Because the image lives on the very disk the cache fronts, a crash
// mid-write leaves a truncated or torn snapshot. The on-disk format is
// therefore a self-validating envelope:
//
//	offset 0   magic "FDCM" (4 bytes)
//	offset 4   format version, uint32 little-endian
//	offset 8   payload length, uint64 little-endian
//	offset 16  gob-encoded CacheCheckpoint (payload)
//	trailer    CRC-32 over header+payload (crcx engine, 4 bytes LE)
//
// Open refuses anything that fails the magic, version, length, CRC or
// semantic validation with an error matching ErrCorruptMetadata; it
// never builds a cache from a suspect image. With WithRecovery the
// same checks run, but a rejected image yields a cold (empty) cache
// plus a RecoveryReport instead of an error — the Flash contents are
// lost as cache state, but no wrong data is ever served.

// ErrCorruptMetadata tags every corruption-class load failure:
// truncation, bad magic, wrong version, CRC mismatch, gob decode
// errors and semantically impossible images. Test with errors.Is.
var ErrCorruptMetadata = errors.New("core: corrupt metadata image")

const (
	persistVersion    = 4
	persistMagic      = "FDCM"
	persistHeaderSize = envelope.HeaderSize
)

// SaveMetadata writes the cache-state image to w inside the
// self-validating envelope. The cache must be quiescent (no in-flight
// operation). It fails only when w does.
func (c *Cache) SaveMetadata(w io.Writer) error {
	ck := c.checkpoint()
	ck.Stats = Stats{RetiredBlocks: ck.Stats.RetiredBlocks}
	ck.Device.Stats = nand.Stats{}
	for b := range ck.Device.Blocks {
		for s := range ck.Device.Blocks[b].Slots {
			ck.Device.Blocks[b].Slots[s].ProgrammedAt = [2]sim.Time{}
		}
	}
	ck.BusyUntil = 0
	ck.ScrubTick, ck.ScrubBlock, ck.ScrubSlot, ck.ScrubSub = 0, 0, 0, 0
	ck.Injector, ck.HasInjector = fault.InjectorState{}, false
	ck.AdmitState = nil
	return envelope.Write(w, persistMagic, persistVersion, ck)
}

// decodeEnvelope validates the envelope around a metadata image and
// gob-decodes the payload. Every failure wraps ErrCorruptMetadata.
func decodeEnvelope(r io.Reader) (*CacheCheckpoint, error) {
	var ck CacheCheckpoint
	if err := envelope.Read(r, persistMagic, persistVersion, &ck); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptMetadata, err)
	}
	return &ck, nil
}

// loadMetadata rebuilds a cache from a metadata image and the original
// configuration; Open is its one caller. The configuration must match
// the one the image was saved under (same FlashBytes, Split, Seed —
// the wear trajectories are re-derived from them).
//
// A truncated, bit-flipped or internally inconsistent image is
// rejected with an error wrapping ErrCorruptMetadata; the function
// never returns a cache built from a suspect image.
func loadMetadata(cfg Config, r io.Reader) (*Cache, error) {
	ck, err := decodeEnvelope(r)
	if err != nil {
		return nil, err
	}
	if ck.FlashBytes != cfg.FlashBytes {
		return nil, fmt.Errorf("core: metadata for %dB Flash, config says %dB",
			ck.FlashBytes, cfg.FlashBytes)
	}
	c := New(cfg)
	// The image carries no injector stream: the campaign starts afresh
	// from the configured plan, exactly as New left it.
	if inj := c.dev.FaultInjector(); inj != nil {
		ck.Injector, ck.HasInjector = inj.Checkpoint(), true
	}
	if err := c.restore(ck); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptMetadata, err)
	}
	return c, nil
}

// RecoveryReport describes how a cache came back from a metadata
// image.
type RecoveryReport struct {
	// ColdStart is true when the image was rejected and the cache was
	// rebuilt empty. The Flash contents are abandoned as cache state
	// (they are only a cache — the disk still holds every page), so no
	// data is lost and no wrong data can be served; the cost is a cold
	// miss stream while the cache refills.
	ColdStart bool
	// Err is the load failure that forced the cold start, nil when the
	// image loaded cleanly. errors.Is(Err, ErrCorruptMetadata)
	// distinguishes corruption from configuration mismatches.
	Err error
}

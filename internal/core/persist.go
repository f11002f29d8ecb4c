package core

import (
	"errors"
	"fmt"
	"io"

	"flashdc/internal/ecc"
	"flashdc/internal/envelope"
	"flashdc/internal/nand"
	"flashdc/internal/sim"
	"flashdc/internal/tables"
	"flashdc/internal/wear"
)

// Metadata persistence: the paper keeps the management tables in DRAM
// at run time but sources them from the hard disk ("These tables are
// read from the hard disk drive and stored in DRAM at run-time",
// section 3). SaveMetadata serialises the FCHT/FPST/FBST state plus
// the allocator bookkeeping so a cache can shut down and resume with
// its Flash contents intact — Flash is non-volatile, only the DRAM
// tables need rebuilding.
//
// Because the image lives on the very disk the cache fronts, a crash
// mid-write leaves a truncated or torn snapshot. The on-disk format is
// therefore a self-validating envelope:
//
//	offset 0   magic "FDCM" (4 bytes)
//	offset 4   format version, uint32 little-endian
//	offset 8   payload length, uint64 little-endian
//	offset 16  gob-encoded persistImage (payload)
//	trailer    CRC-32 over header+payload (crcx engine, 4 bytes LE)
//
// LoadMetadata refuses anything that fails the magic, length, CRC or
// semantic validation with an error matching ErrCorruptMetadata; it
// never builds a cache from a suspect image. Open with WithRecovery is
// the degraded path: same checks, but a rejected image yields a cold
// (empty) cache plus a RecoveryReport instead of an error — the Flash
// contents are lost as cache state, but no wrong data is ever served.

// ErrCorruptMetadata tags every corruption-class load failure:
// truncation, bad magic, wrong version, CRC mismatch, gob decode
// errors and semantically impossible images. Test with errors.Is.
var ErrCorruptMetadata = errors.New("core: corrupt metadata image")

const (
	persistVersion    = 2
	persistMagic      = "FDCM"
	persistHeaderSize = envelope.HeaderSize
	// persistMaxErases bounds the per-block erase counts a load will
	// replay. Legitimate images stay far below (SLC endurance is 100k
	// cycles); the bound stops a crafted image from spinning the
	// replay loop unboundedly.
	persistMaxErases = 1 << 20
)

// persistImage is the payload form. Only exported fields survive gob.
type persistImage struct {
	Version    int
	FlashBytes int64
	Blocks     int

	// Per-page state, indexed [block][slot][sub].
	Pages [][]([2]persistPage)
	// Per-block state.
	BlocksMeta []persistBlock
	// Global statistics (FGST).
	Hits, Misses                   int64
	HitLatencyTotal, MissPenTotal  int64
	ECCReconfigs, DensityReconfigs int64
}

type persistPage struct {
	Strength, StagedStrength ecc.Strength
	Mode, StagedMode         wear.Mode
	Valid                    bool
	LBA                      int64
	Access                   uint32
}

type persistBlock struct {
	State              uint8
	Region             int
	Valid, Consumed    int
	CursorSlot, Sub    int
	Erases             int
	TotalECC, TotalSLC int
	Retired            bool
	EraseCount         int // device-side cycles
}

// SaveMetadata writes the management tables to w inside the
// self-validating envelope. The cache must be quiescent (no in-flight
// operation).
func (c *Cache) SaveMetadata(w io.Writer) error {
	img := persistImage{
		Version:    persistVersion,
		FlashBytes: c.cfg.FlashBytes,
		Blocks:     len(c.meta),
		Pages:      make([][]([2]persistPage), len(c.meta)),
		BlocksMeta: make([]persistBlock, len(c.meta)),

		Hits:             c.fgst.Hits,
		Misses:           c.fgst.Misses,
		HitLatencyTotal:  int64(c.fgst.HitLatencyTotal),
		MissPenTotal:     int64(c.fgst.MissPenaltyTotal),
		ECCReconfigs:     c.fgst.ECCReconfigs,
		DensityReconfigs: c.fgst.DensityReconfigs,
	}
	for b := range c.meta {
		img.Pages[b] = make([]([2]persistPage), nand.SlotsPerBlock)
		for s := 0; s < nand.SlotsPerBlock; s++ {
			for sub := 0; sub < 2; sub++ {
				st := c.fpst.At(nand.Addr{Block: b, Slot: s, Sub: sub})
				img.Pages[b][s][sub] = persistPage{
					Strength:       st.Strength,
					StagedStrength: st.StagedStrength,
					Mode:           st.Mode,
					StagedMode:     st.StagedMode,
					Valid:          st.Valid,
					LBA:            st.LBA,
					Access:         st.Access,
				}
			}
		}
		m := &c.meta[b]
		bst := c.fbst.At(b)
		img.BlocksMeta[b] = persistBlock{
			State:      uint8(m.state),
			Region:     m.region,
			Valid:      m.valid,
			Consumed:   m.consumed,
			CursorSlot: m.cursorSlot,
			Sub:        m.cursorSub,
			Erases:     bst.Erases,
			TotalECC:   bst.TotalECC,
			TotalSLC:   bst.TotalSLC,
			Retired:    bst.Retired,
			EraseCount: c.dev.EraseCount(b),
		}
	}
	return writeEnvelope(w, &img)
}

// writeEnvelope wraps a payload image in the self-validating envelope:
// header, gob body, CRC-32 trailer (internal/envelope).
func writeEnvelope(w io.Writer, img *persistImage) error {
	return envelope.Write(w, persistMagic, persistVersion, img)
}

// decodeEnvelope validates the envelope around a metadata image and
// gob-decodes the payload. Every failure wraps ErrCorruptMetadata.
func decodeEnvelope(r io.Reader) (*persistImage, error) {
	var img persistImage
	if err := envelope.Read(r, persistMagic, persistVersion, &img); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptMetadata, err)
	}
	if img.Version != persistVersion {
		return nil, fmt.Errorf("%w: payload version %d, want %d",
			ErrCorruptMetadata, img.Version, persistVersion)
	}
	return &img, nil
}

// checkBlock rejects a block lifecycle state, region or allocation
// cursor that no cache can hold. It and checkPage are the range checks
// LoadMetadata and Restore share, both run before any state changes.
func (c *Cache) checkBlock(b int, state uint8, region, cursorSlot, cursorSub int) error {
	if state > uint8(blockRetired) {
		return fmt.Errorf("block %d in impossible state %d", b, state)
	}
	if region < 0 || region >= len(c.regions) {
		return fmt.Errorf("block %d in region %d of %d", b, region, len(c.regions))
	}
	if cursorSlot < 0 || cursorSlot > nand.SlotsPerBlock || cursorSub < 0 || cursorSub > 1 {
		return fmt.Errorf("block %d cursor %d/%d out of range", b, cursorSlot, cursorSub)
	}
	return nil
}

// checkPage rejects a page's ECC strengths or density modes outside
// what this cache can hold: strengths up to the controller's limit, or
// up to the pinned strength of a ForcedStrength cache beyond it.
func (c *Cache) checkPage(b, s, sub int, strength, staged ecc.Strength, mode, stagedMode wear.Mode) error {
	limit := max(ecc.MaxStrength, c.cfg.ForcedStrength)
	if strength < 1 || strength > limit || staged < 1 || staged > limit {
		return fmt.Errorf("page b%d/s%d/%d ECC strength %d/%d out of range", b, s, sub, strength, staged)
	}
	if mode > wear.MLC || stagedMode > wear.MLC {
		return fmt.Errorf("page b%d/s%d/%d in unknown density mode", b, s, sub)
	}
	return nil
}

// validateImage checks that a decoded image is semantically possible
// for the cache built from the target configuration, before any of it
// touches the device. The CRC already rules out accidental corruption;
// this rules out images that are internally inconsistent (saved by a
// buggy writer, or crafted) and would otherwise build a cache that
// lies about its contents.
func validateImage(c *Cache, img *persistImage) error {
	if img.Blocks != len(c.meta) ||
		len(img.Pages) != len(c.meta) || len(img.BlocksMeta) != len(c.meta) {
		return fmt.Errorf("%w: image for %d blocks (tables %d/%d), device has %d",
			ErrCorruptMetadata, img.Blocks, len(img.Pages), len(img.BlocksMeta), len(c.meta))
	}
	seen := make(map[int64]bool)
	openPer := make(map[int]bool)
	for b := range img.BlocksMeta {
		pb := &img.BlocksMeta[b]
		if err := c.checkBlock(b, pb.State, pb.Region, pb.CursorSlot, pb.Sub); err != nil {
			return fmt.Errorf("%w: %v", ErrCorruptMetadata, err)
		}
		if blockLifecycle(pb.State) == blockOpen {
			if openPer[pb.Region] {
				return fmt.Errorf("%w: region %d has two open blocks", ErrCorruptMetadata, pb.Region)
			}
			openPer[pb.Region] = true
		}
		if pb.Consumed < 0 || pb.Consumed > 2*nand.SlotsPerBlock ||
			pb.Valid < 0 || pb.Valid > pb.Consumed {
			return fmt.Errorf("%w: block %d claims %d valid of %d consumed pages",
				ErrCorruptMetadata, b, pb.Valid, pb.Consumed)
		}
		if pb.EraseCount < 0 || pb.EraseCount > persistMaxErases {
			return fmt.Errorf("%w: block %d erase count %d out of range", ErrCorruptMetadata, b, pb.EraseCount)
		}
		if pb.Erases < 0 || pb.TotalECC < 0 || pb.TotalSLC < 0 {
			return fmt.Errorf("%w: block %d has negative wear statistics", ErrCorruptMetadata, b)
		}
		if len(img.Pages[b]) != nand.SlotsPerBlock {
			return fmt.Errorf("%w: block %d has %d slots, want %d",
				ErrCorruptMetadata, b, len(img.Pages[b]), nand.SlotsPerBlock)
		}
		valid := 0
		for s := 0; s < nand.SlotsPerBlock; s++ {
			for sub := 0; sub < 2; sub++ {
				pp := &img.Pages[b][s][sub]
				if err := c.checkPage(b, s, sub, pp.Strength, pp.StagedStrength, pp.Mode, pp.StagedMode); err != nil {
					return fmt.Errorf("%w: %v", ErrCorruptMetadata, err)
				}
				if !pp.Valid {
					continue
				}
				valid++
				if pp.LBA < 0 {
					return fmt.Errorf("%w: page b%d/s%d/%d caches negative LBA %d",
						ErrCorruptMetadata, b, s, sub, pp.LBA)
				}
				if seen[pp.LBA] {
					return fmt.Errorf("%w: LBA %d cached twice", ErrCorruptMetadata, pp.LBA)
				}
				seen[pp.LBA] = true
				if sub == 1 && img.Pages[b][s][0].Mode != wear.MLC {
					return fmt.Errorf("%w: SLC slot b%d/s%d claims a second sub-page",
						ErrCorruptMetadata, b, s)
				}
			}
			if img.Pages[b][s][0].Mode != img.Pages[b][s][1].Mode {
				return fmt.Errorf("%w: slot b%d/s%d sub-pages disagree on density", ErrCorruptMetadata, b, s)
			}
		}
		if valid != pb.Valid {
			return fmt.Errorf("%w: block %d counts %d valid pages, page table holds %d",
				ErrCorruptMetadata, b, pb.Valid, valid)
		}
		switch blockLifecycle(pb.State) {
		case blockFree:
			if valid != 0 {
				return fmt.Errorf("%w: free block %d holds %d valid pages", ErrCorruptMetadata, b, valid)
			}
		case blockRetired:
			if valid != 0 {
				return fmt.Errorf("%w: retired block %d holds %d valid pages", ErrCorruptMetadata, b, valid)
			}
			if !pb.Retired {
				return fmt.Errorf("%w: block %d retired in allocator but not in FBST", ErrCorruptMetadata, b)
			}
		}
	}
	return nil
}

// LoadMetadata rebuilds a cache from a metadata image and the original
// configuration. The configuration must match the one the image was
// saved under (same FlashBytes, Split, Seed — the Flash contents and
// wear state are reconstructed deterministically from them).
//
// A truncated, bit-flipped or internally inconsistent image is
// rejected with an error wrapping ErrCorruptMetadata; the function
// never returns a cache built from a suspect image. See Open with
// WithRecovery for the degraded cold-start path.
func LoadMetadata(cfg Config, r io.Reader) (*Cache, error) {
	img, err := decodeEnvelope(r)
	if err != nil {
		return nil, err
	}
	if img.FlashBytes != cfg.FlashBytes {
		return nil, fmt.Errorf("core: metadata for %dB Flash, config says %dB",
			img.FlashBytes, cfg.FlashBytes)
	}
	c := New(cfg)
	if err := validateImage(c, img); err != nil {
		return nil, err
	}

	// The replay below re-issues the image's erase/program history
	// against the fresh device. That history already happened — the
	// fault injector must not see it, or a campaign's randomness would
	// be consumed (breaking determinism) and replay ops could
	// spuriously fail.
	injector := c.dev.FaultInjector()
	c.dev.SetFaultInjector(nil)
	defer c.dev.SetFaultInjector(injector)

	// Rebuild regions and counters from scratch. New() pre-counted
	// factory-bad blocks into the statistics; the image replay below
	// recounts every retired block, so start from zero.
	for _, r := range c.regions {
		r.free = nil
		r.open = -1
		r.lru.Init()
		r.blocks = 0
	}
	c.totalValid = 0
	fcht, err := tables.NewFCHT(len(c.meta))
	if err != nil {
		return nil, fmt.Errorf("core: rebuilding FCHT: %w", err)
	}
	c.fcht = fcht
	c.stats = Stats{}

	for b := range c.meta {
		pb := img.BlocksMeta[b]
		// Replay device state: erase cycles, then slot modes and
		// programmed pages.
		for i := 0; i < pb.EraseCount; i++ {
			if _, err := c.dev.Erase(b); err != nil {
				return nil, fmt.Errorf("core: replaying erases on block %d: %w", b, err)
			}
		}
		for s := 0; s < nand.SlotsPerBlock; s++ {
			mode := img.Pages[b][s][0].Mode
			if c.dev.Mode(nand.Addr{Block: b, Slot: s}) != mode {
				if err := c.dev.SetMode(b, s, mode); err != nil {
					return nil, fmt.Errorf("core: restoring mode b%d/s%d: %w", b, s, err)
				}
			}
			subs := 1
			if mode == wear.MLC {
				subs = 2
			}
			for sub := 0; sub < subs; sub++ {
				pp := img.Pages[b][s][sub]
				a := nand.Addr{Block: b, Slot: s, Sub: sub}
				st := c.fpst.At(a)
				st.Strength = pp.Strength
				st.StagedStrength = pp.StagedStrength
				st.Mode = pp.Mode
				st.StagedMode = pp.StagedMode
				st.Valid = pp.Valid
				st.LBA = pp.LBA
				st.Access = pp.Access
				if pp.Valid {
					if _, err := c.dev.Program(a, uint64(pp.LBA)); err != nil {
						return nil, fmt.Errorf("core: restoring page %v: %w", a, err)
					}
					c.fcht.Put(pp.LBA, a)
					c.totalValid++
				}
			}
			// Restore staged modes on the unused sub as well.
			if subs == 1 {
				pp := img.Pages[b][s][1]
				st := c.fpst.At(nand.Addr{Block: b, Slot: s, Sub: 1})
				st.StagedMode = pp.StagedMode
				st.StagedStrength = pp.StagedStrength
			}
		}
		m := &c.meta[b]
		m.state = blockLifecycle(pb.State)
		m.region = pb.Region
		m.valid = pb.Valid
		m.consumed = pb.Consumed
		m.cursorSlot = pb.CursorSlot
		m.cursorSub = pb.Sub
		bst := c.fbst.At(b)
		bst.Erases = pb.Erases
		bst.TotalECC = pb.TotalECC
		bst.TotalSLC = pb.TotalSLC
		bst.Retired = pb.Retired

		region := c.regions[m.region]
		switch m.state {
		case blockFree:
			region.addFree(b)
		case blockOpen:
			region.blocks++
			region.open = b
		case blockActive:
			region.blocks++
			m.elem = region.lru.PushBack(b) // recency is lost; order by block id
		case blockRetired:
			c.dev.Retire(b)
			c.stats.RetiredBlocks++
		}
	}
	c.retally()
	// Those device ops were reconstruction, not workload.
	c.dev.ResetStats()

	c.fgst.Hits = img.Hits
	c.fgst.Misses = img.Misses
	c.fgst.HitLatencyTotal = sim.Duration(img.HitLatencyTotal)
	c.fgst.MissPenaltyTotal = sim.Duration(img.MissPenTotal)
	c.fgst.ECCReconfigs = img.ECCReconfigs
	c.fgst.DensityReconfigs = img.DensityReconfigs
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

// Package core implements the paper's contribution: a software-managed
// NAND Flash secondary disk cache with hardware controller assistance.
// It combines
//
//   - the split read/write disk cache of section 3.5 (90% read region,
//     10% write region, with a unified baseline for comparison),
//   - the wear-level aware replacement policy of section 3.6,
//   - background garbage collection following section 5.1, and
//   - the programmable Flash memory controller of sections 4 and 5.2:
//     per-page variable-strength ECC and SLC/MLC density control driven
//     by the latency cost heuristics (delta-t_cs versus delta-t_d), plus
//     hot-page MLC-to-SLC promotion via the saturating access counter.
//
// The cache manages disk pages (2KB, matching the Flash page) and is
// driven by a single goroutine, trace-style; all state lives in the
// paper's four DRAM tables (internal/tables) plus per-block metadata.
package core

import (
	"fmt"
	"math"
	"unsafe"

	"flashdc/internal/ecc"
	"flashdc/internal/fault"
	"flashdc/internal/lbaindex"
	"flashdc/internal/nand"
	"flashdc/internal/obs"
	"flashdc/internal/policy"
	"flashdc/internal/sched"
	"flashdc/internal/sim"
	"flashdc/internal/tables"
	"flashdc/internal/wear"
)

// PageSize is the cache management granularity in bytes.
const PageSize = nand.PageSize

// Backing is the device the cache writes dirty data back to (the hard
// disk in the paper's hierarchy). Implementations return the latency
// of one 2KB page write.
type Backing interface {
	WritePage(lba int64) sim.Duration
}

// discard is the fallback backing that only counts dropped pages; used
// when the cache is simulated without a disk below it.
type discard struct{ pages int64 }

func (d *discard) WritePage(int64) sim.Duration { d.pages++; return 0 }

// Config parameterises the cache. The zero value is not valid; use
// DefaultConfig and override.
type Config struct {
	// FlashBytes is the device capacity with every cell in
	// InitialMode. The block count is derived from it.
	FlashBytes int64
	// ReadFraction is the share of blocks given to the read region of
	// the split cache of section 3.5 (paper: 0.9); the rest form the
	// write region. 1 builds the unified baseline of Figure 4: one
	// region that serves reads and writes.
	ReadFraction float64
	// Programmable enables the section 4 controller (variable ECC and
	// density control). When false the cache runs the fixed "BCH 1
	// error correcting controller" baseline of Figure 12.
	Programmable bool
	// InitialMode is the starting cell density (paper: MLC).
	InitialMode wear.Mode
	// HotSaturation is the saturating access-counter ceiling that
	// triggers MLC-to-SLC promotion (section 5.2.2).
	HotSaturation uint32
	// WearThreshold is the degree-of-wear gap beyond which the
	// replacement policy evicts the newest block instead of the LRU
	// victim (section 3.6).
	WearThreshold float64
	// K1, K2 weight the FBST degree-of-wear cost function.
	K1, K2 float64
	// Watermark is the valid fraction below which read-region
	// background GC starts (paper: 0.90).
	Watermark float64
	// SigmaSpatial is the page-to-page wear spread (Figure 6(b)).
	SigmaSpatial float64
	// WearAcceleration compresses simulated wear for lifetime
	// experiments; 0 means 1.
	WearAcceleration float64
	// MissPenalty is t_miss, the disk miss penalty the
	// reconfiguration heuristics charge for a lost page.
	MissPenalty sim.Duration
	// ForcedStrength, when non-zero, pins every page to one ECC
	// strength, disables the programmable controller and charges the
	// full BCH decode pipeline on every hit, modelling an aged device
	// where errors are always present — the Figure 10 study ("all
	// Flash blocks have the same ECC strength applied"). Values beyond
	// the hardware limit of 12 are allowed to capture the performance
	// trend, as the paper does.
	ForcedStrength ecc.Strength
	// Seed drives wear sampling.
	Seed uint64
	// Backing receives dirty write-backs; nil discards (counted).
	Backing Backing
	// Faults, when non-nil, runs a deterministic fault-injection
	// campaign on the device: transient read flips, program/erase
	// failures and grown bad blocks per the plan. The recovery
	// policies (read retry, remap, retirement, and the scrubber below)
	// are what keep the cache correct under it.
	Faults *fault.Plan
	// ScrubEvery enables the background scrubber: every ScrubEvery
	// host operations it scans a batch of pages and rewrites valid
	// pages whose wear has reached their correction capability before
	// they become unreadable. 0 disables scrubbing.
	ScrubEvery int
	// Retention parameterises the retention-loss error process: pages
	// accumulate flips while they dwell programmed, measured against
	// the simulated clock (hier attaches its clock automatically; bare
	// caches need AttachClock or AttachTimeBase). The zero value
	// disables the process.
	Retention wear.RetentionParams
	// Disturb parameterises the read-disturb error process: block
	// reads add flips to sibling pages until the block is erased. The
	// zero value disables the process.
	Disturb wear.DisturbParams
	// Policies selects the eviction, admission, and GC victim-
	// selection implementations (see internal/policy and policy.go in
	// this package). The zero value is the paper's behaviour; unknown
	// names panic in New — validate user input with policy.Set.Validate
	// before building a cache.
	Policies policy.Set
	// Sched sizes the NAND command scheduler (internal/sched):
	// channel/bank geometry blocks stripe across and the coalescing
	// write buffer. The zero value is the serial single-timeline
	// device of the paper, bit-identical to the historical accounting;
	// like contention generally it only matters once a clock is
	// attached (AttachClock). Invalid geometries, and more banks or
	// write-buffer pages than the device can use, panic in New —
	// validate user input with Validate first.
	Sched sched.Config
	// RefreshThreshold tunes the scrubber's refresh policy when
	// Retention or Disturb is enabled: a valid page whose predicted
	// total error count (wear + retention + disturb) reaches this
	// fraction of its ECC strength is rewritten to fresh space, which
	// restarts its retention dwell and escapes its block's disturb
	// accumulation. Pages whose wear alone reaches capability still
	// take the remap path (stronger configuration staged). 0 means 1.0
	// — refresh only at full capability.
	RefreshThreshold float64
}

// DefaultConfig returns the paper's configuration for a cache of the
// given Flash capacity.
func DefaultConfig(flashBytes int64) Config {
	return Config{
		FlashBytes:    flashBytes,
		ReadFraction:  0.9,
		Programmable:  true,
		InitialMode:   wear.MLC,
		HotSaturation: 64,
		WearThreshold: 256,
		K1:            2,
		K2:            20,
		Watermark:     0.90,
		SigmaSpatial:  0.05,
		MissPenalty:   4200 * sim.Microsecond,
	}
}

// ScrubDefers reports whether the scrubber schedules its migrations
// into idle channel/bank windows: an at-risk page whose bank is busy
// (sched.BankWait past scrubDeferWait) is deferred instead of queueing
// its rewrite behind in-flight commands, and the next scrub increment
// retries the deferred set first, re-validated against current state,
// once their banks go idle. It holds whenever the scrubber is on and
// Sched has a parallel geometry, and takes effect once a clock is
// attached: without one there is no occupancy to consult.
func (cfg *Config) ScrubDefers() bool { return cfg.ScrubEvery > 0 && cfg.Sched.Active() }

// Feedback reports whether any scheduler-feedback path is configured:
// the contention-aware GC, the throttle admission policy or scrub
// deferral. Reports print the feedback counters only then, so
// feedback-off output stays byte-identical.
func (cfg *Config) Feedback() bool {
	ps := cfg.Policies.Normalized()
	return ps.GC == policy.GCContentionAware || ps.Admit == policy.AdmitThrottle || cfg.ScrubDefers()
}

// Validate reports the first setting New cannot build a cache from:
// a capacity under 4 blocks or beyond what a nand.Addr can name, or a
// tuning value outside its domain (every DefaultConfig field a zero
// value leaves unset among them).
func (cfg *Config) Validate() error {
	if minBytes := 4 * int64(nand.SlotsPerBlock) * PageSize; cfg.FlashBytes < minBytes {
		return fmt.Errorf("core: %d bytes of flash is too small (need at least 4 blocks, %d bytes)", cfg.FlashBytes, minBytes)
	}
	if blocks := nand.BlocksForCapacity(cfg.FlashBytes, cfg.InitialMode); blocks > nand.MaxBlocks {
		return fmt.Errorf("core: %d bytes of flash is %d blocks (at most %d)", cfg.FlashBytes, blocks, nand.MaxBlocks)
	}
	switch {
	case !(cfg.ReadFraction > 0 && cfg.ReadFraction <= 1):
		return fmt.Errorf("core: read fraction %v outside (0,1]", cfg.ReadFraction)
	case cfg.ForcedStrength < 0 || cfg.ForcedStrength > 64:
		return fmt.Errorf("core: forced strength %d outside [1,64]", cfg.ForcedStrength)
	case cfg.HotSaturation == 0:
		return fmt.Errorf("core: hot saturation 0, want a positive access count")
	case !(cfg.K1 > 0 && cfg.K2 > cfg.K1):
		return fmt.Errorf("core: wear weights want 0 < K1 < K2, got K1=%v K2=%v", cfg.K1, cfg.K2)
	case !(cfg.WearThreshold > 0):
		return fmt.Errorf("core: wear threshold %v, want > 0", cfg.WearThreshold)
	case !(cfg.Watermark > 0 && cfg.Watermark <= 1):
		return fmt.Errorf("core: watermark %v outside (0,1]", cfg.Watermark)
	case cfg.MissPenalty <= 0:
		return fmt.Errorf("core: miss penalty %v, want > 0", cfg.MissPenalty)
	case !(cfg.WearAcceleration >= 0 && !math.IsInf(cfg.WearAcceleration, 1)):
		return fmt.Errorf("core: wear acceleration %v, want a finite factor >= 0 (0 means 1)", cfg.WearAcceleration)
	case !(cfg.RefreshThreshold >= 0 && cfg.RefreshThreshold <= 1):
		return fmt.Errorf("core: refresh threshold %v outside (0,1] (0 means 1)", cfg.RefreshThreshold)
	}
	if err := cfg.Sched.Validate(); err != nil {
		return err
	}
	// ResidentBytes counts the scheduler's state, so bound it first: a
	// bank past the blocks any device can hold never gets one, and the
	// write buffer fronts no more pages than the device has.
	channels, banks := max(1, cfg.Sched.Channels), max(1, cfg.Sched.Banks)
	if banks > nand.MaxBlocks/channels {
		return fmt.Errorf("core: %d channels x %d banks is more banks than the %d blocks a device can hold",
			cfg.Sched.Channels, cfg.Sched.Banks, nand.MaxBlocks)
	}
	if pages := cfg.FlashBytes / PageSize; int64(cfg.Sched.WriteBufPages) > pages {
		return fmt.Errorf("core: a %d-page write buffer is larger than the %d pages of %d bytes of flash",
			cfg.Sched.WriteBufPages, pages, cfg.FlashBytes)
	}
	return cfg.Policies.Validate()
}

// writeBufPageBytes is the write buffer's state per page once full: a
// FIFO entry and a slot of its presized LBA map, measured at 66–78
// bytes on amd64.
const writeBufPageBytes = 80

// ResidentBytes returns the bytes of per-page state a cache built from
// cfg holds once its FCHT has grown to the device's page count: the
// device's slots, the FPST's and the FCHT's index slots, and under a
// non-serial scheduler its channel and bank timelines and full write
// buffer. Per-block state adds under 2% more. cfg must pass Validate.
func (cfg *Config) ResidentBytes() int64 {
	slots := nand.SlotsPerBlock * max(4, nand.BlocksForCapacity(cfg.FlashBytes, cfg.InitialMode))
	n := int64(slots)*(nand.SlotBytes+int64(unsafe.Sizeof(tables.SlotStatus{}))) + lbaindex.Bytes(2*slots)
	if s := cfg.Sched; s.Active() {
		channels := int64(max(1, s.Channels))
		n += channels*(1+int64(max(1, s.Banks)))*int64(unsafe.Sizeof(sim.Time(0))) +
			int64(s.WriteBufPages)*writeBufPageBytes
	}
	return n
}

// baseStrength is the ECC strength pages start at: the forced
// strength of the Figure 10 study, else the paper's baseline of 1.
func (cfg *Config) baseStrength() ecc.Strength {
	if cfg.ForcedStrength != 0 {
		return cfg.ForcedStrength
	}
	return 1
}

// Region indices.
const (
	readRegion  = 0
	writeRegion = 1
)

// Stats aggregates cache-level activity. Device-level operation counts
// live in nand.Stats (Cache.DeviceStats).
type Stats struct {
	// Host operations.
	Reads, Writes int64
	Hits, Misses  int64
	// Fills counts read-miss insertions into the read region.
	Fills int64
	// GCRuns counts garbage collections; GCRelocations the valid
	// pages they moved; GCTime their total (background) duration.
	GCRuns, GCRelocations int64
	GCTime                sim.Duration
	// Evictions counts block evictions (capacity); FlushedPages the
	// dirty pages written back to the backing store by them.
	Evictions    int64
	FlushedPages int64
	// WearSwaps counts wear-level migrations where the newest block
	// was evicted in place of the LRU victim (section 3.6).
	WearSwaps int64
	// Promotions counts hot-page MLC-to-SLC migrations (section
	// 5.2.2).
	Promotions int64
	// Uncorrectable counts reads whose bit errors exceeded the
	// configured ECC strength even after retries (served from disk
	// instead). UncorrectableInjected is the subset whose organic wear
	// alone was within capability — the loss was injection-caused.
	Uncorrectable         int64
	UncorrectableInjected int64
	// RetiredBlocks counts permanently removed blocks (including
	// factory-bad blocks never placed in service).
	RetiredBlocks int64

	// Fault-tolerance activity (nonzero only under fault campaigns or
	// heavy wear). ReadRetries counts retry reads issued after a
	// correction-capability overflow; RetryRecoveries the reads those
	// retries salvaged.
	ReadRetries, RetryRecoveries int64
	// TransientFlips counts injected bit flips observed by reads
	// (the injected share; organic wear errors are not counted here).
	TransientFlips int64
	// ProgramFailures and EraseFailures count failed device
	// operations; Remaps the victim pages rewritten to another slot
	// after a program failure.
	ProgramFailures, EraseFailures, Remaps int64
	// ScrubScans counts pages examined by the background scrubber;
	// ScrubMigrations the at-risk pages it rewrote; ScrubTime its
	// total background duration.
	ScrubScans, ScrubMigrations int64
	ScrubTime                   sim.Duration
	// Refresh-policy activity (nonzero only with retention or read
	// disturb enabled). RetentionScans counts predictive scrub
	// increments; RefreshRewrites the healthy pages rewritten because
	// predicted retention+disturb errors approached capability;
	// DisturbResets the block erases that cleared a nonzero
	// read-disturb counter.
	RetentionScans, RefreshRewrites, DisturbResets int64

	// Admission-policy activity (nonzero only under non-default
	// admission). AdmitRejects counts read-miss fills the policy kept
	// out of the read region; WriteArounds the dirty write-backs it
	// routed straight to the backing store instead of the write
	// region.
	AdmitRejects, WriteArounds int64

	// Scheduler-feedback activity (nonzero only under the
	// contention-aware GC or throttle admission policies, or scrub
	// deferral). GCDeferred counts non-forced background
	// collections deferred under deep foreground backlog;
	// AdmitThrottleFlips the admission throttle's engagements (the
	// on-transitions of its hysteresis); ScrubDeferred the scrub/
	// refresh migrations pushed off a busy bank; ScrubWindows the
	// scrub increments that landed at least one deferred migration in
	// an idle window.
	GCDeferred, AdmitThrottleFlips int64
	ScrubDeferred, ScrubWindows    int64
}

// Merge adds other's counters into s, combining the activity of
// independent caches (one per shard) into one total.
func (s *Stats) Merge(other Stats) {
	s.Reads += other.Reads
	s.Writes += other.Writes
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.Fills += other.Fills
	s.GCRuns += other.GCRuns
	s.GCRelocations += other.GCRelocations
	s.GCTime += other.GCTime
	s.Evictions += other.Evictions
	s.FlushedPages += other.FlushedPages
	s.WearSwaps += other.WearSwaps
	s.Promotions += other.Promotions
	s.Uncorrectable += other.Uncorrectable
	s.UncorrectableInjected += other.UncorrectableInjected
	s.RetiredBlocks += other.RetiredBlocks
	s.ReadRetries += other.ReadRetries
	s.RetryRecoveries += other.RetryRecoveries
	s.TransientFlips += other.TransientFlips
	s.ProgramFailures += other.ProgramFailures
	s.EraseFailures += other.EraseFailures
	s.Remaps += other.Remaps
	s.ScrubScans += other.ScrubScans
	s.ScrubMigrations += other.ScrubMigrations
	s.ScrubTime += other.ScrubTime
	s.RetentionScans += other.RetentionScans
	s.RefreshRewrites += other.RefreshRewrites
	s.DisturbResets += other.DisturbResets
	s.AdmitRejects += other.AdmitRejects
	s.WriteArounds += other.WriteArounds
	s.GCDeferred += other.GCDeferred
	s.AdmitThrottleFlips += other.AdmitThrottleFlips
	s.ScrubDeferred += other.ScrubDeferred
	s.ScrubWindows += other.ScrubWindows
}

// MissRate returns read misses over read lookups.
func (s Stats) MissRate() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Reads)
}

// Cache is the Flash-based disk cache. Not safe for concurrent use.
type Cache struct {
	cfg     Config
	dev     *nand.Device
	fcht    *tables.FCHT
	fpst    *tables.FPST
	fbst    *tables.FBST
	fgst    tables.FGST
	lat     ecc.LatencyModel
	regions []*region
	meta    []blockMeta
	stats   Stats
	// rotate runs the section 3.6 wear rotation after reclaim erases.
	// Eviction always takes the LRU tail, so rotate is the one
	// difference between the eviction policies: cm-wear is wear-lru
	// with the rotation off.
	rotate bool
	// The pluggable policy decision points (see policy.go): fill/
	// write-back admission and GC victim selection. Built once in New
	// from cfg.Policies; the defaults reproduce the paper's welded-in
	// behaviour exactly.
	admitPol admitPolicy
	gcPol    gcPolicy
	// seq is a logical access clock for frequency estimation.
	seq uint64
	// gcCheck counts host operations toward the next read-region
	// watermark check (every 32).
	gcCheck uint64
	// totalValid is the number of valid pages across the cache.
	totalValid int64
	// marginalFreq is an EWMA of the access frequency of pages
	// dropped by capacity evictions — the marginal utility of one
	// page of capacity, feeding the delta-miss term of the
	// section 5.2.1 heuristics. Negative until the first eviction.
	marginalFreq float64
	dead         bool
	// pagesScratch and gcScratch back appendValidPagesOf, so reclaim
	// stays off the allocator; see that method's contract.
	pagesScratch, gcScratch []nand.Addr
	// obs, when attached, receives decision events and samples the
	// stats at snapshot time; nil means observability is off (the hot
	// paths pay one untaken branch per decision site).
	obs *obs.Observer
	// clock arms contention modelling (see AttachClock); sched owns
	// the device's channel/bank service timelines and the coalescing
	// write buffer. At the default 1×1 geometry the scheduler is
	// bit-identical to the single busy-until timeline it replaced.
	clock *sim.Clock
	sched *sched.Scheduler
	// scrubTick amortises the operation-count scrub trigger;
	// scrubBlock/scrubSlot/scrubSub is the scan cursor.
	scrubTick             uint64
	scrubBlock, scrubSlot int
	scrubSub              int
	// scrubDeferred is the idle-window queue of at-risk pages whose
	// migration was deferred off a busy bank (Config.ScrubDefers);
	// each entry is re-validated against current state when retried.
	scrubDeferred []nand.Addr
}

// mustTable unwraps a tables constructor result: New validates every
// parameter it forwards (positive block count, saturation, 0 < K1 <
// K2), so an error here is an internal invariant violation.
func mustTable[T any](t T, err error) T {
	if err != nil {
		panic("core: internal: " + err.Error())
	}
	return t
}

// New builds a cache. It panics on a configuration Validate rejects:
// sizing the cache is a design-time decision in every caller.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.ForcedStrength != 0 {
		cfg.Programmable = false
	}
	if cfg.RefreshThreshold == 0 {
		cfg.RefreshThreshold = 1
	}
	cfg.Policies = cfg.Policies.Normalized()

	blocks := nand.BlocksForCapacity(cfg.FlashBytes, cfg.InitialMode)
	if blocks < 4 {
		blocks = 4
	}
	var injector *fault.Injector
	var factoryBad []int
	if cfg.Faults != nil {
		injector = fault.NewInjector(*cfg.Faults)
		factoryBad = cfg.Faults.FactoryBadBlocks
	}
	fpst := mustTable(tables.NewFPST(blocks, cfg.baseStrength(), cfg.InitialMode, cfg.HotSaturation))
	c := &Cache{
		cfg: cfg,
		dev: nand.New(nand.Config{
			Blocks:           blocks,
			SigmaSpatial:     cfg.SigmaSpatial,
			InitialMode:      cfg.InitialMode,
			Seed:             cfg.Seed,
			WearAcceleration: cfg.WearAcceleration,
			Retention:        cfg.Retention,
			Disturb:          cfg.Disturb,
			Faults:           injector,
			FactoryBadBlocks: factoryBad,
		}),
		fcht:         tables.NewFCHT(fpst),
		fpst:         fpst,
		fbst:         mustTable(tables.NewFBST(blocks, cfg.K1, cfg.K2)),
		lat:          ecc.DefaultLatencyModel(),
		meta:         make([]blockMeta, blocks),
		marginalFreq: -1,
		sched:        sched.New(cfg.Sched),
	}
	c.rotate = cfg.Policies.Evict != policy.EvictCMWear
	c.admitPol, c.gcPol = newPolicies(c, cfg.Policies)
	if cfg.Backing == nil {
		c.cfg.Backing = &discard{}
	}

	c.regions = []*region{newRegion(readRegion)}
	readBlocks := blocks
	if cfg.ReadFraction < 1 {
		readBlocks = int(float64(blocks) * cfg.ReadFraction)
		if readBlocks < 2 {
			readBlocks = 2
		}
		if blocks-readBlocks < 2 {
			readBlocks = blocks - 2
		}
		c.regions = append(c.regions, newRegion(writeRegion))
	}
	for b := 0; b < blocks; b++ {
		r := readRegion
		if b >= readBlocks {
			r = writeRegion
		}
		c.meta[b] = blockMeta{region: r, prev: none, next: none}
		if c.markFactoryBad(b) {
			continue
		}
		c.regions[r].addFree(b)
	}
	for _, r := range c.regions {
		if r.blocks < 2 {
			// Factory bad blocks ate a region below operating minimum.
			c.dead = true
		}
	}
	return c
}

// markFactoryBad records a block the device shipped as bad: it never
// enters a region and counts as retired from birth.
func (c *Cache) markFactoryBad(b int) bool {
	if !c.dev.Retired(b) {
		return false
	}
	c.meta[b].state = blockRetired
	c.stats.RetiredBlocks++
	return true
}

// Stats returns a copy of the cache counters.
func (c *Cache) Stats() Stats { return c.stats }

// Policies returns the normalized policy selection the cache runs.
func (c *Cache) Policies() policy.Set { return c.cfg.Policies }

// DeviceStats returns the underlying Flash operation counters.
func (c *Cache) DeviceStats() nand.Stats { return c.dev.Stats() }

// FaultStats returns the fault injector's counters — the injected
// failure supply, against which the Stats recovery counters (retries,
// remaps, retirements) measure the controller's response. Zero when no
// campaign is attached.
func (c *Cache) FaultStats() fault.Stats { return c.dev.FaultInjector().Stats() }

// Global returns a copy of the FGST (miss rate, latency averages,
// reconfiguration-event counters for Figure 11).
func (c *Cache) Global() tables.FGST { return c.fgst }

// Contains reports whether lba is cached in Flash.
func (c *Cache) Contains(lba int64) bool {
	_, ok := c.fcht.Get(lba)
	return ok
}

// ValidPages returns the number of live cached pages.
func (c *Cache) ValidPages() int64 { return c.totalValid }

// Dead reports whether the cache has lost so many blocks it can no
// longer operate (the "total Flash failure" endpoint of Figure 12).
func (c *Cache) Dead() bool { return c.dead }

// CapacityPages returns the current addressable page capacity across
// usable blocks.
func (c *Cache) CapacityPages() int64 {
	return c.dev.CapacityBytes() / PageSize
}

// Blocks returns the device's erase-block count.
func (c *Cache) Blocks() int { return c.dev.Blocks() }

// EraseCount returns the erase cycles block b has endured, for
// wear-levelling studies.
func (c *Cache) EraseCount(b int) int { return c.dev.EraseCount(b) }

// ResetDeviceStats zeroes the Flash device operation counters (e.g.
// after warmup); wear state and cache contents are untouched. The
// contention timeline is re-anchored to the epoch, matching callers
// that reset their clock alongside (hier.System.ResetStats does).
func (c *Cache) ResetDeviceStats() {
	c.dev.ResetStats()
	c.sched.Reset()
	// The deferred scrub queue indexes the dropped timelines' idle
	// windows; retrying against re-anchored banks is meaningless, and
	// the patrol cursor will revisit any page still at risk.
	c.scrubDeferred = c.scrubDeferred[:0]
}

// AttachClock enables device-contention modelling: with a clock
// attached, background work (GC, wear rotations) occupies the Flash
// device on a timeline, and host reads arriving while it runs wait for
// it — the mechanism behind Figure 1(b)'s performance impact. Without
// a clock (the default), background work is accounted in GCTime and
// power only. Attaching is idempotent.
func (c *Cache) AttachClock(clock *sim.Clock) {
	c.clock = clock
	c.sched.AttachClock(clock)
	c.dev.AttachClock(clock)
	if c.obs != nil {
		c.obs.SetClock(clock)
	}
}

// AttachTimeBase gives the device a simulated time base for retention
// dwell accounting without enabling contention modelling. The
// hierarchy attaches its clock this way unconditionally, so the
// retention process works in every run; AttachClock subsumes it.
func (c *Cache) AttachTimeBase(clock *sim.Clock) { c.dev.AttachClock(clock) }

// SchedStats returns a copy of the command scheduler's counters.
func (c *Cache) SchedStats() sched.Stats { return c.sched.Stats() }

// SchedHorizon returns the latest busy-until instant across the
// device's channels and banks — the makespan of all device work issued
// so far (bandwidth studies divide operations by it).
func (c *Cache) SchedHorizon() sim.Time { return c.sched.Horizon() }

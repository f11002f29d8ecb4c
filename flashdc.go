// Package flashdc is a full reproduction of "Improving NAND Flash
// Based Disk Caches" (Kgil, Roberts, Mudge — ISCA 2008): a NAND Flash
// secondary disk cache with a split read/write organisation,
// wear-level aware replacement, and a programmable Flash memory
// controller offering per-page variable-strength BCH ECC and SLC/MLC
// density control.
//
// # Architecture
//
// The library is layered bottom-up (each layer is independently usable
// and tested):
//
//   - internal/gf, internal/bch, internal/crcx: GF(2^m) arithmetic, a
//     real binary BCH codec (Berlekamp–Massey + Chien search), and a
//     parallel CRC-32 engine — the controller's error machinery.
//   - internal/ecc: the variable-strength page codec (CRC32 + BCH in
//     the 64-byte spare area) plus the 100MHz hardware accelerator
//     latency model.
//   - internal/wear: the exponential cell wear-out model (Figure 6(b)).
//   - internal/nand: the dual-mode SLC/MLC NAND device (2KB pages, 64
//     slots per block, Table 3 timing, wear-driven bit errors).
//   - internal/core: the paper's contribution — the Flash disk cache
//     with FCHT/FPST/FBST/FGST management tables, split regions,
//     background GC, wear levelling and controller reconfiguration.
//   - internal/dram, internal/disk, internal/hier, internal/server:
//     the rest of the platform — DRAM primary disk cache, hard disk,
//     the assembled hierarchy, and the closed-loop server throughput
//     model.
//   - internal/workload, internal/trace: Table 4 workload generators
//     and the trace format.
//   - internal/experiments: one runner per paper table and figure.
//
// This package re-exports the pieces a downstream user needs, so that
// `import "flashdc"` is enough for common use. See the examples/
// directory for runnable programs and cmd/fdcbench for the experiment
// harness.
package flashdc

import (
	"io"

	"flashdc/internal/array"
	"flashdc/internal/core"
	"flashdc/internal/engine"
	"flashdc/internal/experiments"
	"flashdc/internal/fault"
	"flashdc/internal/ftl"
	"flashdc/internal/hier"
	"flashdc/internal/obs"
	"flashdc/internal/sched"
	"flashdc/internal/server"
	"flashdc/internal/sim"
	"flashdc/internal/trace"
	"flashdc/internal/wear"
	"flashdc/internal/workload"
)

// Core cache API (the paper's contribution).
type (
	// CacheConfig parameterises the Flash disk cache.
	CacheConfig = core.Config
	// Cache is the Flash-based secondary disk cache.
	Cache = core.Cache
	// CacheStats aggregates cache activity.
	CacheStats = core.Stats
	// Backing receives dirty write-backs from the cache.
	Backing = core.Backing
	// SchedConfig sizes the NAND command scheduler
	// (CacheConfig.Sched): channel/bank parallelism and the
	// coalescing write buffer. The zero value is the paper's serial
	// device.
	SchedConfig = sched.Config
	// SchedStats counts NAND command-scheduler activity (contention
	// waits, bank conflicts, write-buffer coalescing).
	SchedStats = sched.Stats
)

// DefaultCacheConfig returns the paper's configuration (split 90/10,
// programmable controller, MLC base, BCH-1 base strength) for the
// given Flash capacity in bytes.
func DefaultCacheConfig(flashBytes int64) CacheConfig {
	return core.DefaultConfig(flashBytes)
}

// NewCache builds a Flash disk cache.
func NewCache(cfg CacheConfig) *Cache { return core.New(cfg) }

// Hierarchy API (DRAM primary disk cache + Flash + disk, Figure 2).
type (
	// SystemConfig sizes a full memory hierarchy.
	SystemConfig = hier.Config
	// System is an assembled hierarchy driven by requests.
	System = hier.System
	// SystemStats aggregates hierarchy behaviour.
	SystemStats = hier.Stats
)

// NewSystem assembles a hierarchy; FlashBytes == 0 builds the
// DRAM-only baseline.
func NewSystem(cfg SystemConfig) *System { return hier.New(cfg) }

// Tier composition: the hierarchy is a chain of Tier values (DRAM,
// optionally Flash, disk) rather than hard-wired fields.
type (
	// Tier is one level of the storage hierarchy.
	Tier = hier.Tier
	// TierStats counts one tier's activity in tier-agnostic terms.
	TierStats = hier.TierStats
)

// Degraded-service conditions System.Handle reports alongside the
// simulated latency; test with errors.Is.
var (
	// ErrFlashBypassed marks a run whose Flash tier failed to restore
	// from a metadata image and was left out of the hierarchy.
	ErrFlashBypassed = hier.ErrFlashBypassed
	// ErrFlashDead marks a run whose Flash cache wore out entirely.
	ErrFlashDead = hier.ErrFlashDead
)

// Sharded simulation engine: hash-partitions the LBA space across
// independent per-shard hierarchies replayed by a worker pool, with
// bit-for-bit reproducible merged results.
type (
	// EngineConfig parameterises the sharded engine.
	EngineConfig = engine.Config
	// Engine replays request streams across shards and merges results.
	Engine = engine.Engine
)

// NewEngine builds a sharded engine; Shards=1 reproduces the
// monolithic simulation exactly.
func NewEngine(cfg EngineConfig) (*Engine, error) { return engine.New(cfg) }

// ShardOf maps a page to its owning shard under the canonical LBA
// hash partition.
func ShardOf(lba int64, shards int) int { return engine.ShardOf(lba, shards) }

// Workload and trace API (Table 4).
type (
	// Request is one disk access (2KB pages).
	Request = trace.Request
	// Workload is an endless request generator.
	Workload = workload.Generator
	// WorkloadSpec describes a catalog entry.
	WorkloadSpec = workload.Spec
)

// Request directions.
const (
	OpRead  = trace.OpRead
	OpWrite = trace.OpWrite
)

// Workloads lists the Table 4 catalog.
func Workloads() []WorkloadSpec { return workload.Catalog }

// Batched request pipeline: TraceSource is the bulk driving surface
// consumed by System.RunSource and Engine.RunSource (System.RunBatch
// and Engine.RunBatch take in-memory slices directly). The deprecated
// per-request closure shims (System.Run, Engine.RunStream) are gone;
// wrap a closure with FuncSource instead.
type (
	// TraceSource yields a request stream in bulk: Next fills the
	// buffer from the front and returns how many requests were written
	// (0 = exhausted).
	TraceSource = trace.Source
	// SliceTraceSource replays an in-memory request slice.
	SliceTraceSource = trace.SliceSource
	// MappedTrace is a zero-copy source over a binary trace file
	// (tracegen -binary); Close releases the mapping.
	MappedTrace = trace.MapSource
)

// DefaultBatch is the bulk-fill granularity drivers default to.
const DefaultBatch = trace.DefaultBatch

// NewSliceSource wraps an in-memory request slice (not copied) as a
// replayable TraceSource.
func NewSliceSource(reqs []Request) *SliceTraceSource { return trace.NewSliceSource(reqs) }

// FuncSource adapts a legacy pull closure to a TraceSource.
func FuncSource(next func() (Request, bool)) TraceSource { return trace.FuncSource(next) }

// MapTraceFile memory-maps a binary trace file as a TraceSource; the
// records are decoded in place without copying or parsing.
func MapTraceFile(path string) (*MappedTrace, error) { return trace.MapFile(path) }

// WorkloadSource adapts a workload generator to an unbounded
// TraceSource; bound it with the driver's request budget.
func WorkloadSource(g Workload) TraceSource { return workload.AsSource(g) }

// NewWorkload builds a named Table 4 workload at the given footprint
// scale (1.0 = paper size) and seed.
func NewWorkload(name string, scale float64, seed uint64) (Workload, error) {
	return workload.New(name, scale, seed)
}

// Server throughput model (substitute for the paper's M5 platform).
type ServerModel = server.Model

// DefaultServer returns the Table 3 platform model (8 workers).
func DefaultServer() ServerModel { return server.Default() }

// Experiment harness: regenerate any paper table or figure.
type (
	// ExperimentOptions tunes scale, seed and request budget.
	ExperimentOptions = experiments.Options
	// ResultTable is a reproduced paper artifact.
	ResultTable = experiments.Table
)

// Experiments lists every artifact ID (table1..4, fig1b..fig12,
// ablations).
func Experiments() []string { return experiments.IDs() }

// RunExperiment regenerates one paper artifact.
func RunExperiment(id string, o ExperimentOptions) (*ResultTable, error) {
	return experiments.Run(id, o)
}

// DefaultExperimentOptions is the standard 1/16-scale configuration.
func DefaultExperimentOptions() ExperimentOptions { return experiments.DefaultOptions() }

// Simulated time units, re-exported for configuration convenience.
type Duration = sim.Duration

// Duration units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Flash-as-SSD substrate: the log-structured FTL the paper's
// background section contrasts the disk cache against.
type (
	// FTLConfig sizes a log-structured Flash translation layer.
	FTLConfig = ftl.Config
	// FTL is a flash-as-disk device with out-of-place writes and
	// greedy cleaning.
	FTL = ftl.FTL
)

// NewFTL builds a log-structured FTL over a fresh NAND device.
func NewFTL(cfg FTLConfig) *FTL { return ftl.New(cfg) }

// Multi-chip deployment: pages striped across independent channels.
type (
	// ArrayConfig sizes a multi-chip Flash array.
	ArrayConfig = array.Config
	// FlashArray schedules operations across striped chips.
	FlashArray = array.Array
)

// NewFlashArray builds a page-striped multi-chip array. Degenerate
// configurations are reported as errors.
func NewFlashArray(cfg ArrayConfig) (*FlashArray, error) { return array.New(cfg) }

// Cell density modes, re-exported for configuration.
const (
	// ModeSLC stores one bit per cell (fast, durable).
	ModeSLC = wear.SLC
	// ModeMLC stores two bits per cell (dense, default).
	ModeMLC = wear.MLC
)

// Reliability realism: deterministic retention-loss and read-disturb
// error processes, configured via CacheConfig.Retention / .Disturb
// (zero values disable both, preserving the ideal-NAND behaviour).
type (
	// RetentionParams models charge loss with dwell time since a page
	// was programmed, accelerated by accumulated wear.
	RetentionParams = wear.RetentionParams
	// DisturbParams models read disturb accumulating with sibling
	// reads on a block, cleared by erase.
	DisturbParams = wear.DisturbParams
	// Clock is the simulated time base; attach one to a standalone
	// Cache via AttachClock so retention dwell advances (the hierarchy
	// and engine attach theirs automatically).
	Clock = sim.Clock
)

// OpenCacheOption configures OpenCache (functional options).
type OpenCacheOption = core.OpenOption

// WithRecovery makes OpenCache crash-tolerant: a metadata image that
// fails validation yields a cold (empty) cache and a RecoveryReport
// instead of an error.
func WithRecovery() OpenCacheOption { return core.WithRecovery() }

// WithObserver attaches an observability sink to the opened cache. A
// nil or disabled observer is a no-op.
func WithObserver(o *Observer) OpenCacheOption { return core.WithObserver(o) }

// OpenCache is the single entry point for building a Flash disk cache:
// fresh when r is nil, warm from a Cache.SaveMetadata image otherwise
// (the paper's tables are sourced from disk at run time, section 3).
// Without WithRecovery a truncated or corrupted image is rejected with
// an error wrapping ErrCorruptMetadata and the cache is nil; with it a
// rejected image cold-starts and the report says why.
func OpenCache(cfg CacheConfig, r io.Reader, opts ...OpenCacheOption) (*Cache, RecoveryReport, error) {
	return core.Open(cfg, r, opts...)
}

// Fault injection and recovery API.
type (
	// FaultPlan configures a deterministic fault-injection campaign
	// (transient read flips, program/erase failures, grown bad
	// blocks); attach one via CacheConfig.Faults.
	FaultPlan = fault.Plan
	// FaultStats counts the faults an injector delivered.
	FaultStats = fault.Stats
	// RecoveryReport describes how OpenCache brought a cache back
	// (clean load vs. cold start).
	RecoveryReport = core.RecoveryReport
)

// ErrCorruptMetadata tags every corruption-class metadata load
// failure; test with errors.Is.
var ErrCorruptMetadata = core.ErrCorruptMetadata

// Observability API: a deterministic metrics registry plus decision-
// event tracing, timestamped in simulated time (see internal/obs).
type (
	// ObsOptions configures an Observer (metrics, snapshot interval,
	// tracing, ring-buffer capacity).
	ObsOptions = obs.Options
	// Observer is one simulation's observability sink; attach via
	// SystemConfig.Observer, EngineConfig.Obs or OpenCache's
	// WithObserver.
	Observer = obs.Observer
	// ObsReport is the merged observability output of a run.
	ObsReport = obs.Report
	// ObsSnapshot is one cumulative metrics capture.
	ObsSnapshot = obs.Snapshot
	// ObsEvent is one structured decision event.
	ObsEvent = obs.Event
)

// NewObserver builds an observability sink from the options.
func NewObserver(o ObsOptions) *Observer { return obs.New(o) }

// Simulator is the driving surface shared by System (monolithic) and
// Engine (sharded): one code path replays a stream and collects the
// merged counters and observability report from either.
type Simulator = hier.Simulator

// CampaignCheckpoint is a whole-campaign snapshot (every shard's full
// simulator state plus the stream position) that resumes
// bit-identically to an unbroken run; build one with
// Engine.Checkpoint, apply with Engine.Restore.
type CampaignCheckpoint = engine.Checkpoint

// ErrCorruptCheckpoint tags every checkpoint-file validation failure;
// test with errors.Is.
var ErrCorruptCheckpoint = engine.ErrCorruptCheckpoint

// WriteCampaignCheckpoint serialises a checkpoint inside the
// CRC-guarded envelope (deterministic bytes for identical states).
func WriteCampaignCheckpoint(w io.Writer, ck *CampaignCheckpoint) error {
	return engine.WriteCheckpoint(w, ck)
}

// ReadCampaignCheckpoint decodes and validates a checkpoint file.
func ReadCampaignCheckpoint(r io.Reader) (*CampaignCheckpoint, error) {
	return engine.ReadCheckpoint(r)
}

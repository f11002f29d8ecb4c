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

	"flashdc/internal/core"
	"flashdc/internal/engine"
	"flashdc/internal/experiments"
	"flashdc/internal/fault"
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

// ErrFlashDead is the degraded-service condition System.Err and
// Engine.Err report once a Flash cache has worn out entirely; test
// with errors.Is.
var ErrFlashDead = hier.ErrFlashDead

// Sharded simulation engine: hash-partitions the LBA space across
// independent per-shard hierarchies replayed concurrently, with
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

// Workload and trace API (Table 4).
type (
	// Request is one disk access (2KB pages).
	Request = trace.Request
	// Workload is an endless request generator.
	Workload = workload.Generator
)

// Request directions.
const (
	OpRead  = trace.OpRead
	OpWrite = trace.OpWrite
)

// TraceSource is the bulk driving surface consumed by Engine.RunSource
// (System.RunBatch and Engine.RunBatch take in-memory slices
// directly): Next fills the buffer from the front and
// returns how many requests were written (0 = exhausted).
type TraceSource = trace.Source

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

// RunExperiment regenerates one paper artifact.
func RunExperiment(id string, o ExperimentOptions) (*ResultTable, error) {
	return experiments.Run(id, o)
}

// Simulated time units, re-exported for configuration convenience.
type Duration = sim.Duration

// Duration units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

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
	// RecoveryReport describes how OpenCache brought a cache back
	// (clean load vs. cold start).
	RecoveryReport = core.RecoveryReport
)

// ErrCorruptMetadata tags every corruption-class metadata load
// failure; test with errors.Is.
var ErrCorruptMetadata = core.ErrCorruptMetadata

// Observability API: deterministic metric snapshots plus decision-
// event tracing, timestamped in simulated time (see internal/obs).
type (
	// ObsOptions configures an Observer (metrics, snapshot interval,
	// tracing, ring-buffer capacity).
	ObsOptions = obs.Options
	// Observer is one simulation's observability sink; attach via
	// SystemConfig.Observer, EngineConfig.Obs or OpenCache's
	// WithObserver.
	Observer = obs.Observer
)

// NewObserver builds an observability sink from the options.
func NewObserver(o ObsOptions) *Observer { return obs.New(o) }

// Package engine turns the single-threaded hierarchy simulator into a
// throughput-oriented parallel engine: it hash-partitions the LBA
// space across N shards (trace.ShardOf), gives every shard a fully
// independent hier.System — its own clock, RNG streams, management
// tables and NAND device, sized at 1/N of the configured capacity —
// and replays each request batch as one fork-join across the shards.
//
// The decomposition mirrors how real NAND subsystems scale: channel
// and way parallelism over independent flash dies, each die with its
// own FTL state. Because shards share no mutable state, the merged
// result for a fixed (seed, shards) pair is bit-for-bit reproducible
// regardless of GOMAXPROCS or the worker count: each shard's request
// order is fixed by the partition (never by scheduling), each shard's
// simulation is deterministic given its derived seed, and the merge
// folds shards in index order.
//
// A single-shard engine is the monolithic simulator: shard 0 keeps
// the base seed, the full capacities and the unsplit stream, so its
// results are identical to driving hier.System directly.
package engine

import (
	"errors"
	"fmt"
	"unsafe"

	"flashdc/internal/dram"
	"flashdc/internal/hier"
	"flashdc/internal/obs"
	"flashdc/internal/sim"
	"flashdc/internal/trace"
)

// Config parameterises the engine.
type Config struct {
	// Shards is the number of LBA partitions, each an independent
	// hier.System; at least 1.
	Shards int
	// Workers bounds how many shards simulate concurrently; 0 means
	// one worker per shard.
	Workers int
	// Hier is the whole-system template: DRAM and Flash capacities
	// are divided evenly across shards, and each shard's seed is
	// derived from Hier.Seed and the shard index (ShardSeed).
	Hier hier.Config
	// Obs enables observability: every shard gets its own Observer
	// built from these options (clocked by that shard's simulated
	// clock), and Observe merges their output deterministically. The
	// zero value disables observability entirely.
	Obs obs.Options
}

// Engine is a sharded simulation engine. Configure with New, drive
// with RunBatch or RunSource, then read the merged
// accessors. The run methods block until the replay completes; the
// merged accessors must not be called while a run is in flight.
type Engine struct {
	cfg    Config
	shards []*hier.System
	// observers holds the per-shard observability sinks (empty when
	// Config.Obs is zero); observed guards the one-time shard_merge
	// trace events in Observe.
	observers []*obs.Observer
	observed  bool
	// pending (the per-shard routed slices) and srcBuf (RunSource's
	// fill buffer) are the batch pipeline's reusable buffers (see
	// run.go); lazily built, reused across runs.
	pending [][]trace.Request
	srcBuf  []trace.Request
}

// ShardSeed derives shard i's simulation seed from the base seed.
// Shard 0 keeps the base seed, so a single-shard engine reproduces
// the monolithic simulation bit-for-bit; later shards draw
// independent streams through the splitmix64 avalanche.
func ShardSeed(base uint64, shard int) uint64 {
	if shard == 0 {
		return base
	}
	return sim.SplitMix64(base + uint64(shard))
}

// MaxResidentBytes caps the state an engine may hold across its
// shards: every shard's device slots, FPST and FCHT at the Flash size,
// its DRAM cache's nodes and index once full, and its event trace ring
// when tracing is on. It is fixed, not read from the host, so the same
// flags are refused on every host; 8 GiB admits about 180 GiB of
// simulated MLC Flash.
const MaxResidentBytes = 8 << 30

// Validate reports the first reason New cannot build an engine from
// cfg: too few shards or a negative worker count, a capacity that
// cannot be divided across the shards, a shard's Flash configuration
// core.Config.Validate rejects, per-page state and event trace rings
// above MaxResidentBytes, or a Hier.Observer (Config.Obs observes
// shards). It allocates nothing.
func (cfg *Config) Validate() error {
	if cfg.Shards < 1 {
		return fmt.Errorf("engine: need at least 1 shard, have %d", cfg.Shards)
	}
	if cfg.Workers < 0 {
		return fmt.Errorf("engine: negative worker count %d", cfg.Workers)
	}
	if cfg.Hier.Observer != nil {
		// Config.Obs is the one way to observe an engine: it builds a
		// shard-labelled observer per shard, where one shared
		// observer would interleave shard output nondeterministically.
		return errors.New("engine: hier.Config.Observer is not supported; set Config.Obs")
	}
	n := int64(cfg.Shards)
	perDRAM := cfg.Hier.DRAMBytes / n
	if perDRAM < dram.PageSize {
		return fmt.Errorf("engine: %d shards leave %d bytes of DRAM each (need ≥ one %d-byte page)",
			cfg.Shards, perDRAM, dram.PageSize)
	}
	resident := dram.ResidentBytes(perDRAM)
	if cfg.Hier.FlashBytes > 0 {
		shard := cfg.Hier
		shard.FlashBytes /= n
		fc := hier.FlashConfig(shard)
		if err := fc.Validate(); err != nil {
			return fmt.Errorf("engine: each of %d shards gets %d bytes of Flash: %w", cfg.Shards, shard.FlashBytes, err)
		}
		resident += fc.ResidentBytes()
	}
	if resident > MaxResidentBytes/n {
		return fmt.Errorf("engine: each of %d shards needs %d bytes of per-page state, over the %d-byte limit for all shards",
			cfg.Shards, resident, int64(MaxResidentBytes))
	}
	if cfg.Obs.Trace {
		// obs.NewTracer allocates a shard's whole ring up front. Counting
		// in events keeps a huge capacity from overflowing the bytes.
		events, size := int64(cfg.Obs.TraceCapacity), int64(unsafe.Sizeof(obs.Event{}))
		if events <= 0 {
			events = obs.DefaultTraceCapacity
		}
		if events > (MaxResidentBytes/n-resident)/size {
			return fmt.Errorf("engine: each of %d shards needs a %d-event trace ring (%d bytes an event) beside %d bytes of per-page state, over the %d-byte limit for all shards",
				cfg.Shards, events, size, resident, int64(MaxResidentBytes))
		}
	}
	return nil
}

// New builds an engine of cfg.Shards independent hierarchies. It
// returns Validate's error, rather than panicking like the underlying
// constructors, for a configuration it cannot build.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := int64(cfg.Shards)
	perDRAM, perFlash := cfg.Hier.DRAMBytes/n, cfg.Hier.FlashBytes/n
	e := &Engine{cfg: cfg}
	for i := 0; i < cfg.Shards; i++ {
		h := cfg.Hier
		h.DRAMBytes = perDRAM
		h.FlashBytes = perFlash
		h.Seed = ShardSeed(cfg.Hier.Seed, i)
		if cfg.Obs != (obs.Options{}) {
			o := obs.New(cfg.Obs)
			o.SetShard(i)
			h.Observer = o
			e.observers = append(e.observers, o)
		}
		e.shards = append(e.shards, hier.New(h))
	}
	return e, nil
}

// Shards returns the number of partitions.
func (e *Engine) Shards() int { return len(e.shards) }

// Shard exposes one partition's hierarchy for inspection.
func (e *Engine) Shard(i int) *hier.System { return e.shards[i] }

// Workers returns how many goroutines simulate shards at once.
func (e *Engine) Workers() int {
	if e.cfg.Workers <= 0 || e.cfg.Workers > len(e.shards) {
		return len(e.shards)
	}
	return e.cfg.Workers
}

// ResetStats zeroes every shard's activity counters after a warmup
// phase (hier.System.ResetStats); cache contents and Flash wear are
// untouched.
func (e *Engine) ResetStats() {
	for _, sh := range e.shards {
		sh.ResetStats()
	}
}

// Drain flushes every shard's dirty state down to its disk.
func (e *Engine) Drain() {
	for _, sh := range e.shards {
		sh.Drain()
	}
}

// Err returns the degraded-service error of the lowest-indexed shard
// whose Flash tier is dead (hier.ErrFlashDead), or nil.
func (e *Engine) Err() error { return e.firstErr((*hier.System).Err) }

// firstErr returns f's error on the lowest-indexed shard that has one,
// naming the shard when there is more than one.
func (e *Engine) firstErr(f func(*hier.System) error) error {
	for i, sh := range e.shards {
		if err := f(sh); err != nil {
			if len(e.shards) == 1 {
				return err
			}
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

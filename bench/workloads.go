package main

import (
	"bufio"
	"fmt"
	"os"

	"flashdc/internal/core"
	"flashdc/internal/engine"
	"flashdc/internal/hier"
	"flashdc/internal/obs"
	"flashdc/internal/policy"
	"flashdc/internal/sched"
	"flashdc/internal/sim"
	"flashdc/internal/trace"
	"flashdc/internal/workload"
)

// simSeed is the simulator's own wear-sampling seed. It stays fixed so
// that -seed varies only the request stream.
const simSeed = 1

// spec is one benchmark workload: a generated trace and the system it
// replays through. The four specs vary what the caches see — working
// set against DRAM and Flash, write share, device parallelism, shard
// count and observation — so that each layer dominates at least one of
// them and is bypassed by another (see README.md).
type spec struct {
	Name string
	Why  string
	// Trace is the workload.Catalog generator, Scale its footprint
	// scale and Requests the trace length.
	Trace    string
	Scale    float64
	Requests int
	// DRAM and Flash are whole-system capacities in bytes; the engine
	// divides them across Shards.
	DRAM, Flash int64
	Shards      int
	Workers     int
	Sched       sched.Config
	Policies    policy.Set
	Obs         obs.Options
}

var specs = []spec{
	{
		Name: "oltp-flash-hit",
		Why: "dbt2 whose working set fits the 128 MB flash but is 8x the DRAM, " +
			"so PDC misses become flash read hits: core.Read carries the host time",
		Trace: "dbt2", Scale: 1.0 / 16, Requests: 2_000_000,
		DRAM: 16 << 20, Flash: 128 << 20, Shards: 1,
	},
	{
		Name: "web-capacity-churn",
		Why: "WebSearch1 with a working set 2.5x the flash, forcing fill, " +
			"evict and erase churn through core.Insert and the disk",
		Trace: "WebSearch1", Scale: 1.0 / 16, Requests: 1_000_000,
		DRAM: 16 << 20, Flash: 128 << 20, Shards: 1,
	},
	{
		Name: "writeback-gc-8ch",
		Why: "alpha1 with 30% writes through a 2 MB DRAM into 8x4 channels/banks, " +
			"a write buffer and feedback GC/admission: the only workload where sched works",
		Trace: "alpha1", Scale: 1.0 / 16, Requests: 1_500_000,
		DRAM: 2 << 20, Flash: 32 << 20, Shards: 1,
		Sched:    sched.Config{Channels: 8, Banks: 4, WriteBufPages: 16},
		Policies: policy.Set{GC: policy.GCContentionAware, Admit: policy.AdmitThrottle},
	},
	{
		Name: "sharded-observed",
		Why: "alpha2 whose reads hit the PDC 93% of the time, on 2 shards x 2 workers with " +
			"metrics and event tracing on: engine routing, dram and obs carry the time",
		Trace: "alpha2", Scale: 1.0 / 16, Requests: 3_000_000,
		DRAM: 8 << 20, Flash: 64 << 20, Shards: 2, Workers: 2,
		Obs: obs.Options{Metrics: true, MetricsInterval: 10 * sim.Millisecond, Trace: true},
	},
}

// lookupSpec returns the named workload.
func lookupSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// hierConfig is the whole-system hierarchy template the engine divides
// across shards.
func (s spec) hierConfig() hier.Config {
	fc := core.DefaultConfig(s.Flash)
	fc.Sched = s.Sched
	fc.Policies = s.Policies
	return hier.Config{DRAMBytes: s.DRAM, FlashBytes: s.Flash, Flash: fc, Seed: simSeed}
}

// engineConfig is the configuration every replay of s builds its
// engine from.
func (s spec) engineConfig() engine.Config {
	return engine.Config{Shards: s.Shards, Workers: s.Workers, Hier: s.hierConfig(), Obs: s.Obs}
}

// shardConfig is the hierarchy configuration engine.New gives shard i:
// an even share of the capacities, the derived seed and, when
// observation is on, a shard-labelled observer of its own.
func (s spec) shardConfig(i int) hier.Config {
	h := s.hierConfig()
	h.DRAMBytes /= int64(s.Shards)
	h.FlashBytes /= int64(s.Shards)
	h.Seed = engine.ShardSeed(simSeed, i)
	if s.Obs != (obs.Options{}) {
		o := obs.New(s.Obs)
		o.SetShard(i)
		h.Observer = o
	}
	return h
}

// traceFile is a generated FDCT trace on disk with the page totals the
// replay checks against.
type traceFile struct {
	path                  string
	readPages, writePages int64
}

// writeTrace generates s's request stream from seed into a new FDCT
// file in dir. The trace lives in a file that replays memory-map, not
// in the Go heap, so that live_heap_mb measures the simulator alone.
// The caller removes the file.
func writeTrace(s spec, seed uint64, dir string) (tf traceFile, err error) {
	g, err := workload.New(s.Trace, s.Scale, seed)
	if err != nil {
		return tf, err
	}
	f, err := os.CreateTemp(dir, "flashdc-bench-*.fdct")
	if err != nil {
		return tf, err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	rec := trace.AppendBinaryHeader(make([]byte, 0, 16))
	if _, err = w.Write(rec); err != nil {
		return tf, err
	}
	for i := 0; i < s.Requests; i++ {
		r := g.Next()
		pages := int64(max(r.Pages, 1))
		if r.Op == trace.OpRead {
			tf.readPages += pages
		} else {
			tf.writePages += pages
		}
		if _, err = w.Write(trace.AppendBinary(rec[:0], r)); err != nil {
			return tf, err
		}
	}
	if err = w.Flush(); err != nil {
		return tf, err
	}
	if err = f.Close(); err != nil {
		return tf, err
	}
	tf.path = f.Name()
	return tf, nil
}

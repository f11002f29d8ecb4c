package experiments

import (
	"flashdc/internal/core"
	"flashdc/internal/engine"
	"flashdc/internal/hier"
	"flashdc/internal/server"
	"flashdc/internal/sim"
	"flashdc/internal/trace"
	"flashdc/internal/workload"
)

// The paper measures one access protocol (section 5.1) in two
// settings: on the Flash cache alone and through the DRAM -> Flash ->
// disk hierarchy. flashAccess and replayFlash drive a bare Flash
// cache; warmAndMeasure and busyElapsed drive a hierarchy through a
// one-shard engine, the path fdcsim replays.

// stream is a request stream: a workload generator or an experiment's
// own synthetic stream.
type stream interface{ Next() trace.Request }

// streamFunc adapts a function to a stream.
type streamFunc func() trace.Request

func (f streamFunc) Next() trace.Request { return f() }

// flashAccess serves one page from a bare Flash cache: a write lands
// in the write region, and a read that misses is served by the disk
// and filled into the read region. It returns the page's foreground
// latency — the hit latency, the fill cost or the write cost — and
// whether a read hit.
func flashAccess(c *core.Cache, op trace.Op, lba int64) (sim.Duration, bool) {
	if op == trace.OpWrite {
		return c.Write(lba), false
	}
	if out := c.Read(lba); out.Hit {
		return out.Latency, true
	}
	return c.Insert(lba), false
}

// replayFlash replays up to n requests of g through c page by page,
// stopping once the cache is dead. page, when set, sees each page's
// request index, op, latency and hit.
func replayFlash(c *core.Cache, g stream, n int, page func(i int, op trace.Op, lat sim.Duration, hit bool)) {
	for i := 0; i < n && !c.Dead(); i++ {
		r := g.Next()
		r.Expand(func(lba int64) {
			lat, hit := flashAccess(c, r.Op, lba)
			if page != nil {
				page(i, r.Op, lat, hit)
			}
		})
	}
}

// warmAndMeasure replays warm requests of g through a one-shard engine
// of cfg, zeroes its counters, then replays n more: the statistics
// cover steady state. Like hier.New, it panics on a bad cfg.
func warmAndMeasure(cfg hier.Config, g workload.Generator, warm, n int) *engine.Engine {
	e, err := engine.New(engine.Config{Shards: 1, Hier: cfg})
	if err != nil {
		panic("experiments: " + err.Error())
	}
	src := workload.AsSource(g)
	e.RunSource(src, warm)
	e.ResetStats()
	e.RunSource(src, n)
	return e
}

// busyElapsed is a measured run's bottleneck-aware completion time: it
// takes as long as its slowest resource — the closed-loop server
// limit, the disk, or the Flash device.
func busyElapsed(e *engine.Engine) sim.Duration {
	st := e.Stats()
	return max(server.Default().Elapsed(st.Requests, st.AvgLatency()), e.DiskBusy(), e.DeviceStats().BusyTime())
}

package experiments

import (
	"fmt"

	"flashdc/internal/core"
	"flashdc/internal/engine"
	"flashdc/internal/hier"
	"flashdc/internal/sched"
	"flashdc/internal/sim"
	"flashdc/internal/trace"
	"flashdc/internal/workload"
)

func init() {
	register("ablate-readahead", ablateReadahead)
	register("load-sweep", loadSweep)
}

// ablateReadahead sweeps the PDC readahead depth under the SPECWeb99
// workload, whose sequential file scans are exactly what the OS page
// cache prefetches for. The Flash tier makes deep readahead cheap: a
// mispredicted prefetch costs a 50us Flash read, not a 4.2ms seek.
func ablateReadahead(o Options) *Table {
	t := &Table{
		ID:     "ablate-readahead",
		Title:  "Ablation: PDC readahead depth (SPECWeb99)",
		Note:   fmt.Sprintf("128MB DRAM + 2GB Flash at %.4g scale", o.Scale),
		Header: []string{"readahead", "avg_latency_us", "p95_latency_us", "prefetched", "disk_reads"},
	}
	requests := o.Requests
	if requests == 0 {
		requests = 100000
	}
	for _, ra := range []int{0, 4, 16, 64} {
		e := warmAndMeasure(hier.Config{
			DRAMBytes:  int64(float64(128<<20) * o.Scale),
			FlashBytes: int64(float64(2<<30) * o.Scale),
			ReadAhead:  ra,
			Seed:       o.Seed,
		}, workload.MustNew("SPECWeb99", o.Scale, o.Seed+59), 2*requests, requests)
		st := e.Stats()
		t.AddRow(ra,
			st.AvgLatency().Microseconds(),
			e.Latencies().Quantile(0.95).Microseconds(),
			st.Prefetched, st.DiskReads)
	}
	return t
}

// loadSweep shows power proportionality: average power of the
// DRAM-only versus DRAM+Flash hierarchies as the offered load varies
// from idle to the baseline's saturation point. The Flash system's
// lower idle floor (tiny Flash standby power, fewer DIMMs) and lower
// per-request disk activity widen its advantage at every point.
func loadSweep(o Options) *Table {
	t := &Table{
		ID:     "load-sweep",
		Title:  "Average power vs offered load (dbt2), DRAM-only vs DRAM+Flash",
		Note:   fmt.Sprintf("fixed work at decreasing offered load; %.4g scale", o.Scale),
		Header: []string{"load_pct_of_base_peak", "dram_only_W", "dram_flash_W", "savings_pct"},
	}
	requests := o.Requests
	if requests == 0 {
		requests = 80000
	}
	run := func(dram, flash int64) (*engine.Engine, sim.Duration) {
		e := warmAndMeasure(hier.Config{
			DRAMBytes:  int64(float64(dram) * o.Scale),
			FlashBytes: int64(float64(flash) * o.Scale),
			Seed:       o.Seed,
		}, workload.MustNew("dbt2", o.Scale, o.Seed+61), 2*requests, requests)
		e.Drain()
		return e, busyElapsed(e)
	}
	base, basePeak := run(512<<20, 0)
	hybrid, hybridPeak := run(256<<20, 1<<30)
	peak := basePeak
	if hybridPeak > peak {
		peak = hybridPeak
	}
	for _, load := range []float64{1.0, 0.75, 0.50, 0.25, 0.10} {
		// The same work stretched over a longer interval models a
		// lower offered load; activity energy is fixed, idle time
		// grows.
		wall := peak.Scale(1 / load)
		bp := base.Power(wall).Total()
		hp := hybrid.Power(wall).Total()
		t.AddRow(load*100, bp, hp, 100*(bp-hp)/bp)
	}
	return t
}

func init() { register("ablate-channels", ablateChannels) }

// ablateChannels measures how Flash cache service bandwidth scales
// with channel count under the real command scheduler (internal/sched):
// the same warm cache serves the same random read stream at every
// geometry — cache state and decisions are geometry-independent by
// construction — while erase blocks stripe across the channels, so
// the batch makespan (the scheduler's busy horizon) shrinks as
// independent channels absorb the reads in parallel. This is the
// deployment a server platform would use to hide Table 2's high
// per-chip latencies.
func ablateChannels(o Options) *Table {
	t := &Table{
		ID:     "ablate-channels",
		Title:  "Flash cache read bandwidth vs channel count",
		Note:   "real command scheduler, random reads over a warm cache; bandwidth from the scheduler's busy horizon",
		Header: []string{"channels", "makespan_ms", "reads_per_sec", "speedup"},
	}
	reads := o.Requests
	if reads == 0 {
		reads = 20000
	}
	var base float64
	for _, channels := range []int{1, 2, 4, 8} {
		fc := core.DefaultConfig(32 << 20)
		fc.Seed = o.Seed
		fc.Sched = sched.Config{Channels: channels}
		c := core.New(fc)
		var clock sim.Clock
		c.AttachClock(&clock)
		// Warm: fill a footprint comfortably inside the cache, then
		// re-anchor the device timelines so the makespan measures only
		// the read batch.
		footprint := c.CapacityPages() / 4
		for lba := int64(0); lba < footprint; lba++ {
			c.Insert(lba)
		}
		c.ResetDeviceStats()
		rng := sim.NewRNG(o.Seed + 67)
		for i := 0; i < reads; i++ {
			c.Read(int64(rng.Uint64n(uint64(footprint))))
		}
		makespan := c.SchedHorizon()
		rate := float64(reads) / sim.Duration(makespan).Seconds()
		if channels == 1 {
			base = rate
		}
		t.AddRow(channels,
			float64(makespan)/float64(sim.Millisecond),
			rate, rate/base)
	}
	return t
}

func init() { register("gc-contention", gcContention) }

// gcContention surfaces Figure 1(b)'s cost inside the disk cache: with
// device-contention modelling on, background GC occupies the Flash
// chip and colliding foreground reads wait for it. A mixed stream over
// a nearly-full unified cache shows foreground read latency climbing
// with GC pressure; the contention-free accounting (the default) hides
// it in background time.
func gcContention(o Options) *Table {
	t := &Table{
		ID:     "gc-contention",
		Title:  "Foreground read latency with and without GC device contention",
		Note:   fmt.Sprintf("unified cache at 95%% occupancy, 50/50 read-write churn, %.4g scale of 256MB", o.Scale),
		Header: []string{"contention", "avg_hit_latency_us", "gc_time_s", "gc_runs"},
	}
	requests := o.Requests
	if requests == 0 {
		requests = 150000
	}
	for _, contention := range []bool{false, true} {
		cfg := core.DefaultConfig(int64(float64(256<<20) * o.Scale))
		cfg.ReadFraction = 1
		cfg.Programmable = false
		cfg.Seed = o.Seed
		c := core.New(cfg)
		var clock sim.Clock
		if contention {
			c.AttachClock(&clock)
		}
		rng := sim.NewRNG(o.Seed + 71)
		wss := int64(float64(c.CapacityPages()) * 0.95)
		for l := int64(0); l < wss; l++ {
			c.Write(l)
		}
		var hits int64
		var hitLat sim.Duration
		for i := 0; i < requests; i++ {
			lba := int64(rng.Uint64n(uint64(wss)))
			op := trace.OpRead
			if rng.Bool(0.5) {
				op = trace.OpWrite
			}
			lat, hit := flashAccess(c, op, lba)
			if hit {
				hits++
				hitLat += lat
			}
			// Closed loop: the host issues the next operation only
			// after the previous one completes.
			clock.Advance(lat + 10*sim.Microsecond)
		}
		label := "off"
		if contention {
			label = "on"
		}
		avg := 0.0
		if hits > 0 {
			avg = sim.Duration(int64(hitLat) / hits).Microseconds()
		}
		st := c.Stats()
		t.AddRow(label, avg, st.GCTime.Seconds(), st.GCRuns)
	}
	return t
}

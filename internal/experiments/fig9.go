package experiments

import (
	"fmt"

	"flashdc/internal/engine"
	"flashdc/internal/hier"
	"flashdc/internal/power"
	"flashdc/internal/sim"
	"flashdc/internal/workload"
)

func init() { register("fig9", fig9) }

// fig9 reproduces Figure 9: the breakdown of system memory and disk
// power, plus normalized network bandwidth, for the DRAM-only
// architecture versus the DRAM+Flash architecture, under dbt2 and
// SPECWeb99. The paper's configurations: dbt2 compares 512MB DRAM
// against 256MB DRAM + 1GB Flash; SPECWeb99 compares 512MB DRAM
// against 128MB DRAM + 2GB Flash.
func fig9(o Options) *Table {
	t := &Table{
		ID:    "fig9",
		Title: "System memory and disk power breakdown with normalized network bandwidth",
		Note: fmt.Sprintf("closed-loop server model (8 workers); capacities and footprints at %.4g scale",
			o.Scale),
		Header: []string{"benchmark", "config", "memRD_W", "memWR_W", "memIDLE_W",
			"flash_W", "disk_W", "total_W", "norm_bandwidth"},
	}
	requests := o.Requests
	if requests == 0 {
		requests = 120000
	}
	cases := []struct {
		bench      string
		dramOnly   int64
		dramHybrid int64
		flash      int64
	}{
		{"dbt2", 512 << 20, 256 << 20, 1 << 30},
		{"SPECWeb99", 512 << 20, 128 << 20, 2 << 30},
	}
	for _, cs := range cases {
		base := fig9Run(o, cs.bench, cs.dramOnly, 0, requests)
		hybrid := fig9Run(o, cs.bench, cs.dramHybrid, cs.flash, requests)
		// Iso-work power accounting: both systems execute the same
		// benchmark, so power is averaged over the same wall-clock
		// interval — the slower system's completion time with a
		// little slack (the paper measures a fixed benchmark run, not
		// a saturation test).
		wall := base.elapsed
		if hybrid.elapsed > wall {
			wall = hybrid.elapsed
		}
		wall = wall.Scale(1.1)
		basePW := base.power(wall, requests)
		hybridPW := hybrid.power(wall, requests)
		t.AddRow(cs.bench,
			fmt.Sprintf("DDR2 %dMB + HDD", cs.dramOnly>>20),
			basePW.MemRead, basePW.MemWrite, basePW.MemIdle,
			basePW.Flash, basePW.Disk, basePW.Total(), 1.0)
		t.AddRow(cs.bench,
			fmt.Sprintf("DDR2 %dMB + Flash %dMB + HDD", cs.dramHybrid>>20, cs.flash>>20),
			hybridPW.MemRead, hybridPW.MemWrite, hybridPW.MemIdle,
			hybridPW.Flash, hybridPW.Disk, hybridPW.Total(),
			hybrid.throughput/base.throughput)
	}
	return t
}

// appDRAMAccessesPerRequest models the application-side memory traffic
// of the paper's full-system runs (request parsing, buffers, kernel),
// which the trace-driven hierarchy does not otherwise see.
const appDRAMAccessesPerRequest = 50

type fig9Result struct {
	eng        *engine.Engine
	elapsed    sim.Duration // bottleneck-aware completion time
	throughput float64      // requests per second at capacity
}

func (r fig9Result) power(wall sim.Duration, requests int) power.Breakdown {
	return r.eng.Shard(0).PowerWithAppTraffic(wall, int64(requests)*appDRAMAccessesPerRequest)
}

// fig9Run drives one configuration and derives bottleneck-aware
// completion time: the run takes as long as its slowest resource — the
// closed-loop CPU/latency limit, the (single) disk, or the Flash chip.
func fig9Run(o Options, bench string, dramBytes, flashBytes int64, requests int) fig9Result {
	// Warm the caches thoroughly — the Flash tier only fills on PDC
	// misses, so it converges slowly — then measure steady state.
	e := warmAndMeasure(hier.Config{
		DRAMBytes:  int64(float64(dramBytes) * o.Scale),
		FlashBytes: int64(float64(flashBytes) * o.Scale),
		Seed:       o.Seed,
	}, workload.MustNew(bench, o.Scale, o.Seed+7), 3*requests, requests)
	e.Drain()
	st := e.Stats()
	elapsed := busyElapsed(e)
	if elapsed <= 0 {
		elapsed = sim.Duration(1)
	}
	return fig9Result{
		eng:        e,
		elapsed:    elapsed,
		throughput: float64(st.Requests) / elapsed.Seconds(),
	}
}

package experiments

import (
	"fmt"

	"flashdc/internal/core"
	"flashdc/internal/sim"
	"flashdc/internal/trace"
	"flashdc/internal/workload"
)

func init() { register("fig4", fig4) }

// fig4 reproduces Figure 4: Flash miss rate for a unified versus a
// split read/write disk cache, executing the dbt2 (OLTP) trace across
// Flash sizes of 128MB to 640MB (scaled).
func fig4(o Options) *Table {
	t := &Table{
		ID:    "fig4",
		Title: "Flash miss rate, unified vs split read/write disk cache (dbt2)",
		Note: fmt.Sprintf("synthetic dbt2 at %.4g scale; split = 90%% read / 10%% write regions",
			o.Scale),
		Header: []string{"flash_size", "unified_miss", "split_miss", "improvement_pp"},
	}
	sizes := []int64{128 << 20, 256 << 20, 384 << 20, 512 << 20, 640 << 20}
	requests := o.Requests
	if requests == 0 {
		requests = 150000
	}
	for _, size := range sizes {
		unified := fig4Run(o, size, false, requests)
		split := fig4Run(o, size, true, requests)
		t.AddRow(fmt.Sprintf("%dMB", size>>20),
			unified, split, (unified-split)*100)
	}
	return t
}

// fig4Run measures steady-state Flash read miss rate for one
// configuration.
func fig4Run(o Options, flashBytes int64, split bool, requests int) float64 {
	cfg := core.DefaultConfig(int64(float64(flashBytes) * o.Scale))
	cfg.Split = split
	cfg.Programmable = false // isolate the organisation effect
	cfg.Seed = o.Seed
	miss, _ := readMiss(core.New(cfg), workload.MustNew("dbt2", o.Scale, o.Seed+3), requests/2, requests)
	return miss
}

// readMiss replays n requests of g through c and returns the read miss
// rate and mean hit latency over the requests from index warm on.
func readMiss(c *core.Cache, g stream, warm, n int) (float64, sim.Duration) {
	var reads, misses int64
	var hitLat sim.Duration
	replayFlash(c, g, n, func(i int, op trace.Op, lat sim.Duration, hit bool) {
		if i < warm || op == trace.OpWrite {
			return
		}
		reads++
		if hit {
			hitLat += lat
		} else {
			misses++
		}
	})
	if reads == 0 {
		return 0, 0
	}
	var avgHit sim.Duration
	if hits := reads - misses; hits > 0 {
		avgHit = sim.Duration(int64(hitLat) / hits)
	}
	return float64(misses) / float64(reads), avgHit
}

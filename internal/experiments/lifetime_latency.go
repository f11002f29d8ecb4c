package experiments

import (
	"fmt"

	"flashdc/internal/core"
	"flashdc/internal/sim"
	"flashdc/internal/trace"
	"flashdc/internal/workload"
)

func init() { register("lifetime-latency", lifetimeLatency) }

// lifetimeLatency verifies the closing claim of section 7.4: the
// programmable controller's lifetime extension "was accompanied by a
// graceful increase in overall access latency as Flash wore out". The
// experiment runs one workload to total Flash failure and reports the
// average Flash hit latency and miss rate per life epoch: latency must
// creep up (stronger ECC, relocations) rather than cliff, and capacity
// loss shows up late as rising miss rate.
func lifetimeLatency(o Options) *Table {
	t := &Table{
		ID:    "lifetime-latency",
		Title: "Graceful degradation over device lifetime (programmable controller)",
		Note: fmt.Sprintf("Financial2 at %.4g scale, Flash = working set / 2, accelerated wear; one row per tenth of life",
			o.Scale),
		Header: []string{"life_epoch", "avg_hit_latency_us", "miss_rate", "retired_blocks",
			"ecc_events", "density_events"},
	}
	g := workload.MustNew("Financial2", o.Scale, o.Seed+41)
	cfg := core.DefaultConfig(g.FootprintPages() * 2048 / 2)
	cfg.Seed = o.Seed
	cfg.WearAcceleration = 20000
	c := core.New(cfg)

	budget := o.Requests
	if budget == 0 {
		budget = 4_000_000
	}

	type epoch struct {
		hitLat                  sim.Duration
		hits, reads, misses     int64
		retired, eccE, densityE int64
	}
	var epochs []epoch
	cur := epoch{}
	flush := func() {
		cur.retired = c.Stats().RetiredBlocks
		cur.eccE = c.Global().ECCReconfigs
		cur.densityE = c.Global().DensityReconfigs
		epochs = append(epochs, cur)
		cur = epoch{}
	}
	// Fine-grained sampling, merged into ten life buckets afterwards
	// (total lifetime is unknown until the device dies).
	const sample = 2000
	replayFlash(c, g, budget, func(i int, op trace.Op, lat sim.Duration, hit bool) {
		if op != trace.OpWrite {
			cur.reads++
			if hit {
				cur.hits++
				cur.hitLat += lat
			} else {
				cur.misses++
			}
		}
		if (i+1)%sample == 0 {
			flush()
		}
	})
	if cur.reads > 0 {
		flush()
	}

	// Merge the samples into up to ten equal life buckets.
	buckets := 10
	if len(epochs) < buckets {
		buckets = len(epochs)
	}
	for b := 0; b < buckets; b++ {
		lo := b * len(epochs) / buckets
		hi := (b + 1) * len(epochs) / buckets
		var m epoch
		for _, e := range epochs[lo:hi] {
			m.hitLat += e.hitLat
			m.hits += e.hits
			m.reads += e.reads
			m.misses += e.misses
		}
		last := epochs[hi-1]
		avg := 0.0
		if m.hits > 0 {
			avg = (sim.Duration(int64(m.hitLat) / m.hits)).Microseconds()
		}
		miss := 0.0
		if m.reads > 0 {
			miss = float64(m.misses) / float64(m.reads)
		}
		t.AddRow(fmt.Sprintf("%d/%d", b+1, buckets), avg, miss,
			last.retired, last.eccE, last.densityE)
	}
	return t
}

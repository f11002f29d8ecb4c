package experiments

import (
	"fmt"

	"flashdc/internal/core"
	"flashdc/internal/ecc"
	"flashdc/internal/hier"
	"flashdc/internal/server"
	"flashdc/internal/workload"
)

func init() { register("fig10", fig10) }

// fig10 reproduces Figure 10: average throughput (network bandwidth
// relative to the weakest code) as a uniform BCH strength is raised on
// every Flash page, for SPECWeb99 and dbt2 on the 256MB DRAM + 1GB
// Flash platform. Following the paper, strengths beyond the
// controller's 12-bit hardware limit are simulated to expose the
// trend, and the device is assumed aged so every read pays the full
// decode pipeline.
func fig10(o Options) *Table {
	t := &Table{
		ID:    "fig10",
		Title: "Relative bandwidth vs uniform BCH code strength",
		Note: fmt.Sprintf("256MB DRAM + 1GB Flash at %.4g scale, worn-device assumption; bandwidth normalized to t=1",
			o.Scale),
		Header: []string{"bch_t", "SPECWeb99_rel_bw", "dbt2_rel_bw"},
	}
	requests := o.Requests
	if requests == 0 {
		requests = 80000
	}
	strengths := []ecc.Strength{1, 2, 5, 8, 12, 15, 20, 30, 40, 50}
	srv := server.Default()

	bw := func(bench string, s ecc.Strength) float64 {
		fc := core.DefaultConfig(0) // sized by hier
		fc.ForcedStrength = s
		// Warm, then measure: the decode penalty only shows once the
		// Flash tier is serving hits.
		e := warmAndMeasure(hier.Config{
			DRAMBytes:  int64(float64(256<<20) * o.Scale),
			FlashBytes: int64(float64(1<<30) * o.Scale),
			Flash:      fc,
			Seed:       o.Seed,
		}, workload.MustNew(bench, o.Scale, o.Seed+11), 2*requests, requests)
		return srv.Bandwidth(e.Stats().AvgLatency())
	}

	var webBase, dbBase float64
	for i, s := range strengths {
		web := bw("SPECWeb99", s)
		db := bw("dbt2", s)
		if i == 0 {
			webBase, dbBase = web, db
		}
		t.AddRow(int(s), web/webBase, db/dbBase)
	}
	return t
}

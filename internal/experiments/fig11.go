package experiments

import (
	"fmt"

	"flashdc/internal/core"
	"flashdc/internal/workload"
)

func init() { register("fig11", fig11) }

// fig11Workloads is the benchmark set of Figure 11 (the micro
// benchmarks plus the UMass-style macro traces; the paper's figure
// omits exp2's twin and dbt2/SPECWeb99).
var fig11Workloads = []string{
	"uniform", "alpha1", "alpha2", "alpha3", "exp1", "exp2",
	"WebSearch1", "WebSearch2", "Financial1", "Financial2",
}

// fig11 reproduces Figure 11: the breakdown of page reconfiguration
// events — ECC code strength increases versus MLC-to-SLC density
// reductions — per workload, with the Flash sized at half the working
// set and wear accelerated to the region where cells start failing.
// The paper's observation to reproduce: long-tailed distributions
// (uniform) lean almost entirely on ECC strength because capacity is
// precious; short-tailed distributions (exponential) lean on density
// because the miss-rate cost of shrinking is small.
func fig11(o Options) *Table {
	t := &Table{
		ID:    "fig11",
		Title: "Breakdown of page reconfiguration events (ECC strength vs density)",
		Note: fmt.Sprintf("Flash = working set / 2, accelerated wear, %.4g scale; percentages of all descriptor updates",
			o.Scale),
		Header: []string{"workload", "events", "code_strength_pct", "density_pct"},
	}
	requests := o.Requests
	if requests == 0 {
		requests = 400000
	}
	for _, name := range fig11Workloads {
		g := workload.MustNew(name, o.Scale, o.Seed+13)
		flashBytes := g.FootprintPages() * 2048 / 2
		cfg := core.DefaultConfig(flashBytes)
		cfg.Seed = o.Seed
		// Acceleration tuned so blocks reach the error-onset regime
		// ("near the point where the Flash cells start to fail")
		// mid-run rather than racing to end of life.
		cfg.WearAcceleration = 150
		c := core.New(cfg)
		replayFlash(c, g, requests, nil)
		gl := c.Global()
		total := gl.ECCReconfigs + gl.DensityReconfigs
		if total == 0 {
			t.AddRow(name, 0, 0.0, 0.0)
			continue
		}
		t.AddRow(name, total,
			100*float64(gl.ECCReconfigs)/float64(total),
			100*float64(gl.DensityReconfigs)/float64(total))
	}
	return t
}

package experiments

import (
	"fmt"

	"flashdc/internal/core"
	"flashdc/internal/workload"
)

func init() { register("fig12", fig12) }

// fig12Workloads is the benchmark set of Figure 12.
var fig12Workloads = []string{
	"uniform", "alpha1", "alpha2", "alpha3", "exp1",
	"WebSearch1", "WebSearch2", "Financial1", "Financial2",
}

// fig12 reproduces Figure 12: the expected lifetime — host accesses
// until total Flash failure, when no block can store data any more —
// of the programmable Flash memory controller versus a fixed BCH-1
// controller, normalized to the longest observed lifetime. The
// paper's headline: the programmable controller extends lifetime by a
// factor of ~20 on average.
func fig12(o Options) *Table {
	t := &Table{
		ID:    "fig12",
		Title: "Normalized lifetime: programmable controller vs BCH-1 controller",
		Note: fmt.Sprintf("Flash = working set / 2 at %.4g scale, wear acceleration compresses cycles; lifetime in host page accesses until total failure",
			o.Scale),
		Header: []string{"workload", "programmable", "bch1", "norm_programmable", "norm_bch1", "lifetime_gain"},
	}
	budget := o.Requests
	if budget == 0 {
		budget = 8_000_000
	}
	type row struct {
		name       string
		prog, base int64
	}
	var rows []row
	var maxLife int64 = 1
	for _, name := range fig12Workloads {
		prog := fig12Lifetime(o, name, true, budget)
		base := fig12Lifetime(o, name, false, budget)
		rows = append(rows, row{name, prog, base})
		if prog > maxLife {
			maxLife = prog
		}
		if base > maxLife {
			maxLife = base
		}
	}
	for _, r := range rows {
		gain := float64(r.prog) / float64(r.base)
		t.AddRow(r.name, r.prog, r.base,
			float64(r.prog)/float64(maxLife),
			float64(r.base)/float64(maxLife),
			gain)
	}
	return t
}

// fig12Lifetime runs one workload against one controller until total
// Flash failure and returns the number of host page accesses
// absorbed. The budget caps runaway runs; a capped run returns the
// pages it absorbed before the cap.
func fig12Lifetime(o Options, name string, programmable bool, budget int) int64 {
	g := workload.MustNew(name, o.Scale, o.Seed+17)
	flashBytes := g.FootprintPages() * 2048 / 2
	cfg := core.DefaultConfig(flashBytes)
	cfg.Programmable = programmable
	cfg.Seed = o.Seed
	// Aggressive acceleration keeps time-to-total-failure inside the
	// budget; identical for both controllers so the ratio is
	// preserved.
	cfg.WearAcceleration = 20000
	return replayFlash(core.New(cfg), g, budget, nil)
}

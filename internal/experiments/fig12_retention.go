package experiments

import (
	"fmt"

	"flashdc/internal/core"
	"flashdc/internal/sim"
	"flashdc/internal/trace"
	"flashdc/internal/wear"
	"flashdc/internal/workload"
)

func init() { register("fig12_retention", fig12Retention) }

// fig12RetentionOpPeriod is the simulated time each host page access
// represents; sized so retention dwell accumulates meaningfully over a
// lifetime-scale run (a multi-year campaign compressed like the wear).
const fig12RetentionOpPeriod = 10 * sim.Second

// fig12Retention re-runs the Figure 12 lifetime experiment under the
// richer reliability model: retention loss accrues on pages with
// dwell time, read disturb accrues on blocks with sibling reads, and
// the background scrubber's refresh policy (rewrite at 75% of ECC
// capability) defends against both. The question it answers is
// whether the paper's ~20x lifetime gain from the programmable
// controller survives once the error budget is shared with processes
// the controller cannot reconfigure away.
func fig12Retention(o Options) *Table {
	t := &Table{
		ID:    "fig12_retention",
		Title: "Normalized lifetime under retention loss + read disturb: programmable vs BCH-1",
		Note: fmt.Sprintf("Figure 12 scenario plus retention/disturb error processes and a refresh scrubber at %.4g scale; lifetime in host page accesses until total failure",
			o.Scale),
		Header: []string{"workload", "programmable", "bch1", "norm_programmable", "norm_bch1", "lifetime_gain", "refresh_rewrites", "disturb_resets"},
	}
	budget := o.Requests
	if budget == 0 {
		budget = 8_000_000
	}
	type row struct {
		name       string
		prog, base int64
		refreshes  int64
		resets     int64
	}
	var rows []row
	var maxLife int64 = 1
	for _, name := range fig12Workloads {
		prog, st := fig12RetentionLifetime(o, name, true, budget)
		base, _ := fig12RetentionLifetime(o, name, false, budget)
		rows = append(rows, row{name, prog, base, st.RefreshRewrites, st.DisturbResets})
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
			gain, r.refreshes, r.resets)
	}
	return t
}

// fig12RetentionLifetime is fig12Lifetime with the reliability realism
// enabled: a simulated clock advances per access so dwell accrues, and
// the scrubber patrols with the predictive refresh policy. It returns
// the accesses absorbed and the programmable run's refresh statistics.
func fig12RetentionLifetime(o Options, name string, programmable bool, budget int) (int64, core.Stats) {
	g := workload.MustNew(name, o.Scale, o.Seed+17)
	flashBytes := g.FootprintPages() * 2048 / 2
	cfg := core.DefaultConfig(flashBytes)
	cfg.Programmable = programmable
	cfg.Seed = o.Seed
	// Identical acceleration to fig12, so the two artifacts isolate
	// the effect of the added error processes.
	cfg.WearAcceleration = 20000
	// Retention/disturb compressed like the wear: the spec dwell is 10
	// years, one access is 10 simulated seconds, so Accel scales the
	// error processes into the same compressed timeline.
	cfg.Retention = wear.RetentionParams{Accel: 5e4}
	cfg.Disturb = wear.DisturbParams{ReadsPerBit: 20000}
	cfg.ScrubEvery = 256
	cfg.RefreshThreshold = 0.75
	c := core.New(cfg)
	var clk sim.Clock
	c.AttachClock(&clk)
	accesses := replayFlash(c, streamFunc(func() trace.Request {
		clk.Advance(fig12RetentionOpPeriod)
		return g.Next()
	}), budget, nil)
	return accesses, c.Stats()
}

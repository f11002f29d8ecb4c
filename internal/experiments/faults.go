package experiments

import (
	"fmt"

	"flashdc/internal/core"
	"flashdc/internal/fault"
	"flashdc/internal/sim"
	"flashdc/internal/trace"
)

func init() {
	register("fault-sweep", faultSweep)
}

// faultSweep measures the robustness machinery under escalating fault
// pressure: a fixed workload replays against the Flash cache while the
// injected program/erase/read-flip rates ramp, and the table reports
// how much of the failure supply the retry/remap/retire/scrub pipeline
// absorbed, what capacity it cost, and whether any corruption survived
// (the integrity column must read "ok" on every row — a cached page
// serving wrong data is the one unacceptable outcome).
func faultSweep(o Options) *Table {
	t := &Table{
		ID:    "fault-sweep",
		Title: "Robustness: fault-rate sweep (retry, remap, retire, scrub)",
		Note: fmt.Sprintf("64MB cache at %.4g scale; rates are per device operation; "+
			"grown-bad escalation 20%%, scrub every 256 host ops", o.Scale),
		Header: []string{"fault_rate", "miss_rate", "retries", "recovered",
			"remaps", "retired", "scrub_migr", "valid_pages", "integrity"},
	}
	requests := o.Requests
	if requests == 0 {
		requests = 100000
	}
	for _, rate := range []float64{0, 1e-4, 1e-3, 5e-3, 2e-2} {
		cfg := core.DefaultConfig(int64(float64(64<<20) * o.Scale))
		cfg.Seed = o.Seed
		cfg.WearAcceleration = 50
		cfg.ScrubEvery = 256
		if rate > 0 {
			cfg.Faults = &fault.Plan{
				Seed:            o.Seed + 83,
				ReadFlipRate:    rate,
				ProgramFailRate: rate,
				EraseFailRate:   rate,
				GrownBadRate:    0.2,
			}
		}
		c := core.New(cfg)
		rng := sim.NewRNG(o.Seed + 89)
		// Footprint sized to ~2x the cache so reads mostly hit Flash
		// (the injector only sees operations that reach the device).
		footprint := 2 * int64(float64(64<<20)*o.Scale) / 2048
		replayFlash(c, streamFunc(func() trace.Request {
			r := trace.Request{Op: trace.OpRead, LBA: int64(rng.Intn(int(footprint))), Pages: 1}
			if rng.Bool(0.3) {
				r.Op = trace.OpWrite
			}
			return r
		}), requests, nil)
		integrity := "ok"
		if err := c.CheckIntegrity(); err != nil {
			integrity = "FAILED"
		}
		cs := c.Stats()
		t.AddRow(rate, fmt.Sprintf("%.4f", cs.MissRate()),
			cs.ReadRetries, cs.RetryRecoveries, cs.Remaps,
			cs.RetiredBlocks, cs.ScrubMigrations, c.ValidPages(), integrity)
	}
	return t
}

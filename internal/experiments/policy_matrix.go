package experiments

import (
	"fmt"

	"flashdc/internal/core"
	"flashdc/internal/policy"
	"flashdc/internal/workload"
)

func init() { register("policy_matrix", policyMatrix) }

// policyCombos is the raced matrix: the paper defaults, each
// write-reduction policy alone (so its effect is attributable), and
// the whole zoo together.
var policyCombos = []struct {
	name string
	set  policy.Set
}{
	{"baseline", policy.Set{}},
	{"wlfc-admit", policy.Set{Admit: policy.AdmitWLFC}},
	{"cm-wear-evict", policy.Set{Evict: policy.EvictCMWear}},
	{"cost-benefit-gc", policy.Set{GC: policy.GCCostBenefit}},
	{"zoo", policy.Set{Evict: policy.EvictCMWear, Admit: policy.AdmitWLFC, GC: policy.GCCostBenefit}},
}

// policyMatrix races the policy zoo on one workload: a fixed-budget
// fidelity run measures hit rate and write traffic, then an
// accelerated-wear run measures lifetime, both per combination. Write
// amplification here is device programs over host-intended flash
// writes (admitted fills plus write-region writes) — admission
// policies shrink the denominator's traffic at the cost of hit rate,
// which is exactly the trade the table exposes.
func policyMatrix(o Options) *Table {
	t := &Table{
		ID:    "policy_matrix",
		Title: "Policy zoo: hit rate, write traffic and lifetime per eviction/admission/GC combination",
		Note: fmt.Sprintf("dbt2 at %.4g scale; write_amp = device programs / (fills + writes); lifetime in host page accesses until total failure under %dx accelerated wear",
			o.Scale, policyWearAccel),
		Header: []string{"combo", "evict", "admit", "gc", "hit_rate", "write_amp",
			"erases", "admit_rejects", "write_arounds", "lifetime"},
	}
	budget := o.Requests
	if budget == 0 {
		budget = 400_000
	}
	for _, combo := range policyCombos {
		fid := policyFidelityRun(o, combo.set, budget)
		life := policyLifetimeRun(o, combo.set, 10*budget)
		n := combo.set.Normalized()
		hostWrites := fid.Fills + fid.Writes
		wa := 0.0
		if hostWrites > 0 {
			wa = float64(fid.programs) / float64(hostWrites)
		}
		t.AddRow(combo.name, n.Evict, n.Admit, n.GC,
			1-fid.MissRate(), wa, fid.erases,
			fid.AdmitRejects, fid.WriteArounds, life)
	}
	return t
}

// policyWearAccel compresses the lifetime runs like fig12.
const policyWearAccel = 20000

// policyStats is a fidelity run's outcome: the cache counters plus the
// device-level program/erase totals behind them.
type policyStats struct {
	core.Stats
	programs, erases int64
}

// policyFidelityRun replays the workload against a Flash cache sized
// to half its footprint (so eviction and GC stay busy) without wear
// acceleration, and reports the traffic counters.
func policyFidelityRun(o Options, ps policy.Set, budget int) policyStats {
	c, g := policyCache(o, ps, 1)
	replayFlash(c, g, budget, nil)
	ds := c.DeviceStats()
	return policyStats{Stats: c.Stats(), programs: ds.Programs, erases: ds.Erases}
}

// policyLifetimeRun replays under accelerated wear until the cache
// dies (or the budget runs out) and returns the accesses absorbed.
func policyLifetimeRun(o Options, ps policy.Set, budget int) int64 {
	c, g := policyCache(o, ps, policyWearAccel)
	return replayFlash(c, g, budget, nil)
}

func policyCache(o Options, ps policy.Set, wearAccel float64) (*core.Cache, workload.Generator) {
	g := workload.MustNew("dbt2", o.Scale, o.Seed+23)
	cfg := core.DefaultConfig(g.FootprintPages() * 2048 / 2)
	cfg.Seed = o.Seed
	cfg.WearAcceleration = wearAccel
	cfg.Policies = ps
	return core.New(cfg), g
}

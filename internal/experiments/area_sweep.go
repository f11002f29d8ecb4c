package experiments

import (
	"fmt"

	"flashdc/internal/hier"
	"flashdc/internal/sim"
	"flashdc/internal/workload"
)

func init() { register("ablate-area", ablateArea) }

// dramToFlashDensity is the capacity multiple a unit of DRAM die area
// yields when spent on MLC NAND instead (Table 1, 2007 column:
// 0.0324 um^2/bit DRAM versus 0.0065 um^2/bit MLC Flash).
const dramToFlashDensity = 0.0324 / 0.0065

// ablateArea makes the paper's equal-die-area premise (section 7.1:
// "We assume equal die area for a DRAM-only system memory and a
// DRAM+Flash system memory") into a sweep: a fixed silicon budget is
// split between DRAM and Flash, and the dbt2 workload measures where
// the latency/power sweet spot falls. Flash's ~5x density advantage is
// why giving most of the area to Flash wins once the DRAM remainder
// still holds the hot set.
func ablateArea(o Options) *Table {
	t := &Table{
		ID:    "ablate-area",
		Title: "Fixed die area split between DRAM and Flash (dbt2)",
		Note: fmt.Sprintf("budget = 512MB of DRAM silicon at %.4g scale; Flash is %.1fx denser per area (Table 1)",
			o.Scale, dramToFlashDensity),
		Header: []string{"flash_area_pct", "dram", "flash", "avg_latency_us",
			"memory_power_W", "rel_bandwidth"},
	}
	requests := o.Requests
	if requests == 0 {
		requests = 100000
	}
	budgetDRAM := int64(float64(512<<20) * o.Scale) // area in DRAM-byte equivalents

	type point struct {
		label       string
		dram, flash int64
		lat         sim.Duration
		mem         float64
		throughput  float64
	}
	var pts []point
	for _, f := range []float64{0, 0.25, 0.50, 0.75, 0.90} {
		dramBytes := int64(float64(budgetDRAM) * (1 - f))
		if dramBytes < 1<<20 {
			dramBytes = 1 << 20
		}
		flashBytes := int64(float64(budgetDRAM) * f * dramToFlashDensity)
		s := hier.New(hier.Config{DRAMBytes: dramBytes, FlashBytes: flashBytes, Seed: o.Seed})
		warmAndMeasure(s, workload.MustNew("dbt2", o.Scale, o.Seed+43), 2*requests, requests)
		s.Drain()
		st := s.Stats()
		elapsed := busyElapsed(s)
		pw := s.Power(elapsed)
		pts = append(pts, point{
			label:      fmt.Sprintf("%.0f", f*100),
			dram:       dramBytes,
			flash:      flashBytes,
			lat:        st.AvgLatency(),
			mem:        pw.Memory(),
			throughput: float64(st.Requests) / elapsed.Seconds(),
		})
	}
	base := pts[0].throughput
	for _, p := range pts {
		t.AddRow(p.label,
			fmt.Sprintf("%dMB", p.dram>>20),
			fmt.Sprintf("%dMB", p.flash>>20),
			p.lat.Microseconds(), p.mem, p.throughput/base)
	}
	return t
}

// Webserver: the paper's headline scenario (Figure 9) — replace most
// of a web server's DRAM disk cache with NAND Flash and compare power
// and throughput under a SPECWeb99-like workload. Both systems execute
// the same benchmark, so power is averaged over a common wall-clock
// interval (the slower system's completion time).
package main

import (
	"fmt"

	"flashdc"
)

const scale = 1.0 / 16 // shrink capacities and footprint together

// run replays the benchmark through one hierarchy and returns it with
// its completion time.
func run(dramBytes, flashBytes int64) (*flashdc.Engine, flashdc.Duration) {
	eng, err := flashdc.NewEngine(flashdc.EngineConfig{
		Shards: 1,
		Hier: flashdc.SystemConfig{
			DRAMBytes:  int64(float64(dramBytes) * scale),
			FlashBytes: int64(float64(flashBytes) * scale),
			Seed:       7,
		},
	})
	if err != nil {
		panic(err)
	}
	g, err := flashdc.NewWorkload("SPECWeb99", scale, 7)
	if err != nil {
		panic(err)
	}
	// Warm thoroughly (the Flash tier fills on PDC misses only), then
	// measure steady state.
	src := flashdc.WorkloadSource(g)
	eng.RunSource(src, 400000)
	eng.ResetStats()
	eng.RunSource(src, 150000)
	eng.Drain()

	// The run takes as long as its slowest resource: the server, the
	// disk or the Flash device.
	st := eng.Stats()
	return eng, max(flashdc.DefaultServer().Elapsed(st.Requests, st.AvgLatency()),
		eng.DiskBusy(), eng.DeviceStats().BusyTime())
}

func main() {
	fmt.Println("SPECWeb99-like workload, DRAM-only vs DRAM+Flash (Figure 9 scenario)")
	fmt.Printf("capacities at 1/16 of the paper's configuration\n\n")

	base, baseElapsed := run(512<<20, 0)
	hybrid, hybridElapsed := run(128<<20, 2<<30)

	// Iso-work wall clock: the slower system sets the interval.
	wall := max(baseElapsed, hybridElapsed)

	report := func(label string, eng *flashdc.Engine, elapsed flashdc.Duration) float64 {
		st, pw := eng.Stats(), eng.Power(wall)
		fmt.Printf("%s\n", label)
		fmt.Printf("  PDC hits %d, flash hits %d, disk reads %d, avg latency %v\n",
			st.PDCHits, st.FlashHits, st.DiskReads, st.AvgLatency())
		fmt.Printf("  power over common interval: %v\n", pw)
		fmt.Printf("  completion time for the benchmark: %v\n\n", elapsed)
		return pw.Total()
	}
	basePower := report("DDR2 512MB + HDD (baseline)", base, baseElapsed)
	hybridPower := report("DDR2 128MB + Flash 2GB + HDD (proposed)", hybrid, hybridElapsed)

	fmt.Printf("memory+disk power ratio: %.2fx lower with Flash\n", basePower/hybridPower)
	fmt.Printf("speedup on the same work: %.2fx\n",
		baseElapsed.Seconds()/hybridElapsed.Seconds())
}

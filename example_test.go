package flashdc_test

import (
	"fmt"

	"flashdc"
)

// ExampleNewCache shows the basic disk-cache flow of paper section
// 5.1: look up, fetch from disk on a miss, insert, hit.
func ExampleNewCache() {
	cfg := flashdc.DefaultCacheConfig(16 << 20)
	cfg.Seed = 1
	cache := flashdc.NewCache(cfg)

	if out := cache.Read(100); !out.Hit {
		// ... read page 100 from disk here ...
		cache.Insert(100)
	}
	out := cache.Read(100)
	fmt.Println("hit:", out.Hit)
	// Output: hit: true
}

// ExampleNewEngine assembles the Figure 2 hierarchy and serves two
// reads of one page: the second hits the DRAM primary disk cache.
func ExampleNewEngine() {
	eng, err := flashdc.NewEngine(flashdc.EngineConfig{
		Shards: 1,
		Hier: flashdc.SystemConfig{
			DRAMBytes:  1 << 20,
			FlashBytes: 16 << 20,
			Seed:       1,
		},
	})
	if err != nil {
		panic(err)
	}
	read := flashdc.Request{Op: flashdc.OpRead, LBA: 5, Pages: 1}
	eng.RunBatch([]flashdc.Request{read, read})
	st := eng.Stats()
	fmt.Println("requests:", st.Requests, "PDC hits:", st.PDCHits)
	// Output: requests: 2 PDC hits: 1
}

// ExampleNewWorkload builds a Table 4 workload and inspects a request.
func ExampleNewWorkload() {
	g, err := flashdc.NewWorkload("alpha2", 0.01, 1)
	if err != nil {
		panic(err)
	}
	r := g.Next()
	fmt.Println("pages per request:", r.Pages, "in range:", r.LBA >= 0 && r.LBA < g.FootprintPages())
	// Output: pages per request: 1 in range: true
}

// ExampleRunExperiment regenerates one paper artifact.
func ExampleRunExperiment() {
	tab, err := flashdc.RunExperiment("fig6a", flashdc.ExperimentOptions{Seed: 1, Scale: 1.0 / 128})
	if err != nil {
		panic(err)
	}
	fmt.Println(tab.ID, "rows:", len(tab.Rows))
	// Output: fig6a rows: 10
}

// OLTP: the Figure 4 scenario — a dbt2-like database workload against
// the Flash disk cache, comparing the paper's split read/write
// organisation with the unified baseline across cache sizes.
package main

import (
	"fmt"

	"flashdc"
)

const scale = 1.0 / 16

func missRate(flashBytes int64, split bool) float64 {
	cfg := flashdc.DefaultCacheConfig(int64(float64(flashBytes) * scale))
	if !split {
		cfg.ReadFraction = 1 // one region serves reads and writes
	}
	cfg.Programmable = false // isolate the organisation effect
	cfg.Seed = 9
	cache := flashdc.NewCache(cfg)

	g, err := flashdc.NewWorkload("dbt2", scale, 9)
	if err != nil {
		panic(err)
	}
	const requests = 150000
	var reads, misses int64
	for i := 0; i < requests; i++ {
		r := g.Next()
		r.Expand(func(lba int64) {
			if r.Op == flashdc.OpWrite {
				cache.Write(lba)
				return
			}
			out := cache.Read(lba)
			if i > requests/2 { // measure warm
				reads++
				if !out.Hit {
					misses++
				}
			}
			if !out.Hit {
				cache.Insert(lba)
			}
		})
	}
	return float64(misses) / float64(reads)
}

func main() {
	fmt.Println("dbt2 (OLTP) Flash miss rate: unified vs split read/write cache")
	fmt.Println("(Figure 4 scenario, capacities at 1/16 of the paper's)")
	fmt.Println()
	fmt.Printf("%-10s  %-10s  %-10s  %s\n", "flash", "unified", "split", "improvement")
	for _, mb := range []int64{128, 256, 384, 512, 640} {
		u := missRate(mb<<20, false)
		s := missRate(mb<<20, true)
		fmt.Printf("%-10s  %-10.4f  %-10.4f  %+.2f pp\n",
			fmt.Sprintf("%dMB", mb), u, s, 100*(u-s))
	}
	fmt.Println("\nthe split organisation confines out-of-place writes and their")
	fmt.Println("garbage collection to a 10% region, so the read cache keeps its")
	fmt.Println("capacity — the gap grows with cache size, as in the paper.")
}

// Command fdcbench regenerates the paper's tables and figures.
//
// Usage:
//
//	fdcbench [-exp all|<id>[,<id>...]] [-scale 0.0625] [-seed 1] [-requests n]
//
// A malformed flag, a value outside its domain or an unknown
// experiment id is a usage error: fdcbench exits 2 before running
// anything.
//
// Each experiment prints an aligned text table whose rows correspond
// to the series of the paper artifact (see DESIGN.md for the index).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"

	"flashdc/internal/experiments"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id, comma list, or 'all'")
		scale    = flag.Float64("scale", 1.0/16, "capacity/footprint scale relative to the paper, 1/128 to 1")
		seed     = flag.Uint64("seed", 1, "random seed")
		requests = flag.Int("requests", 0, "per-configuration request budget (0 = experiment default)")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		format   = flag.String("format", "text", "output format: text or json")
		parallel = flag.Int("parallel", 1, "experiments to run concurrently (results print in order)")
		plot     = flag.Bool("plot", false, "render an ASCII bar chart of each table's headline column")
		seeds    = flag.Int("seeds", 1, "average each experiment over this many seeds (mean±stddev cells)")
	)
	flag.Parse()

	// Every flag and experiment id is checked before anything runs: a
	// bad value is a usage error, never a silently substituted one.
	switch {
	case flag.NArg() > 0:
		usageErr("unexpected argument %q", flag.Arg(0))
	case *format != "text" && *format != "json":
		usageErr("-format %q: want text or json", *format)
	case !(*scale > 0 && *scale <= 1):
		usageErr("-scale %g outside (0,1]", *scale)
	case *scale < experiments.MinScale:
		usageErr("-scale %g below the smallest scale %g (1/128)", *scale, experiments.MinScale)
	case *requests < 0:
		usageErr("-requests %d is negative", *requests)
	case *seeds < 1:
		usageErr("-seeds %d: need at least one seed", *seeds)
	case *parallel < 1:
		usageErr("-parallel %d: need at least one experiment at a time", *parallel)
	}
	ids := experiments.IDs()
	if *list {
		for _, id := range ids {
			fmt.Println(id)
		}
		return
	}
	if *exp != "all" {
		known := map[string]bool{}
		for _, id := range ids {
			known[id] = true
		}
		ids = strings.Split(*exp, ",")
		for i, id := range ids {
			ids[i] = strings.TrimSpace(id)
			if !known[ids[i]] {
				usageErr("-exp: unknown experiment %q (-list shows the ids)", ids[i])
			}
		}
	}
	opts := experiments.Options{Seed: *seed, Scale: *scale, Requests: *requests}

	// Run (optionally in parallel — experiments are independent and
	// internally deterministic), then print in the requested order.
	type result struct {
		tab *experiments.Table
		err error
	}
	results := make([]result, len(ids))
	sem := make(chan struct{}, *parallel)
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			var tab *experiments.Table
			var err error
			if *seeds > 1 {
				tab, err = experiments.RunSeeds(id, opts, *seeds)
			} else {
				tab, err = experiments.Run(id, opts)
			}
			results[i] = result{tab: tab, err: err}
		}()
	}
	wg.Wait()

	var tables []*experiments.Table
	for _, r := range results {
		if r.err != nil {
			fmt.Fprintln(os.Stderr, "fdcbench:", r.err)
			os.Exit(1)
		}
		if *format == "json" {
			tables = append(tables, r.tab)
			continue
		}
		fmt.Println(r.tab.String())
		if *plot {
			fmt.Println(r.tab.Chart(r.tab.DefaultChartColumn(), 48))
		}
	}
	if *format == "json" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tables); err != nil {
			fmt.Fprintln(os.Stderr, "fdcbench:", err)
			os.Exit(1)
		}
	}
}

// usageErr reports a flag-validation failure as a usage error (exit 2,
// the flag package's convention) before any experiment runs.
func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fdcbench: "+format+"\n", args...)
	fmt.Fprintln(os.Stderr, "run with -h for usage")
	os.Exit(2)
}

// Command tracegen emits disk access traces from the Table 4 workload
// catalog, in the text format fdcsim replays with -trace or (with
// -binary) the packed binary format it maps with -trace-binary.
//
// Usage:
//
//	tracegen -workload Financial2 -requests 100000 -scale 0.0625 > f2.trace
//	tracegen -workload alpha2 -requests 1000000 -binary -o alpha2.fdct
//	tracegen -list
//
// An unknown workload, a scale outside (0,1] or a negative request
// count is a usage error: tracegen exits 2 before writing anything.
package main

import (
	"flag"
	"fmt"
	"os"

	"flashdc/internal/trace"
	"flashdc/internal/workload"
)

func main() {
	var (
		name     = flag.String("workload", "dbt2", "Table 4 workload name")
		requests = flag.Int("requests", 100000, "number of requests to emit")
		scale    = flag.Float64("scale", 1.0/16, "footprint scale (1 = paper size)")
		seed     = flag.Uint64("seed", 1, "random seed")
		list     = flag.Bool("list", false, "list catalog and exit")
		binary   = flag.Bool("binary", false, "emit the packed binary format (fdcsim -trace-binary)")
		out      = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()

	if *list {
		for _, s := range workload.Catalog {
			fmt.Printf("%-12s %-5s footprint=%dMB writes=%.0f%%  %s\n",
				s.Name, s.Kind, s.FootprintBytes>>20, 100*s.WriteFraction, s.Description)
		}
		return
	}

	// Usage errors exit 2 before any output is written.
	switch {
	case flag.NArg() > 0:
		usageErr("unexpected argument %q", flag.Arg(0))
	case !(*scale > 0 && *scale <= 1):
		usageErr("-scale %g outside (0,1]", *scale)
	case *requests < 0:
		usageErr("-requests %d is negative", *requests)
	}
	g, err := workload.New(*name, *scale, *seed)
	if err != nil {
		usageErr("-workload: %v", err)
	}

	f := os.Stdout
	if *out != "" {
		f, err = os.Create(*out)
		die(err)
		defer f.Close()
	}
	if *binary {
		w := trace.NewBinaryWriter(f)
		for i := 0; i < *requests; i++ {
			die(w.Write(g.Next()))
		}
		die(w.Flush())
		return
	}
	w := trace.NewWriter(f)
	fmt.Fprintf(f, "# workload=%s scale=%g seed=%d requests=%d footprint=%d pages\n",
		g.Name(), *scale, *seed, *requests, g.FootprintPages())
	for i := 0; i < *requests; i++ {
		die(w.Write(g.Next()))
	}
	die(w.Flush())
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

// usageErr reports a flag-validation failure as a usage error (exit 2,
// the flag package's convention).
func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracegen: "+format+"\n", args...)
	fmt.Fprintln(os.Stderr, "run with -h for usage")
	os.Exit(2)
}

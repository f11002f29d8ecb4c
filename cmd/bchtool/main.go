// Command bchtool demonstrates the controller's error machinery on
// real data: it encodes 2KB pages at a chosen ECC strength, injects
// random bit errors, decodes, and reports the outcome — the software
// equivalent of the paper's hardware BCH + CRC32 pipeline, with the
// accelerator latency model's estimates alongside.
//
// Usage:
//
//	bchtool -t 4 -errors 4 -pages 16
//	bchtool -t 2 -errors 5 -pages 16   # overload: detection must fire
//
// A malformed flag, a value outside its domain or a stray argument is
// a usage error: bchtool exits 2 before encoding anything. Output
// depends only on the flags, so same-seed runs are byte-identical.
package main

import (
	"flag"
	"fmt"
	"os"

	"flashdc/internal/ecc"
	"flashdc/internal/sim"
)

func main() {
	var (
		strength = flag.Int("t", 4, "ECC strength (correctable errors per page, 1-12)")
		nErrors  = flag.Int("errors", 4, "bit errors injected per page")
		pages    = flag.Int("pages", 16, "number of pages to process")
		seed     = flag.Uint64("seed", 1, "random seed")
	)
	flag.Parse()

	switch {
	case flag.NArg() > 0:
		usageErr("unexpected argument %q", flag.Arg(0))
	case *strength < 1 || *strength > ecc.MaxStrength:
		// Checked as an int: the conversion to Strength would wrap.
		usageErr("-t: strength %d outside [1, %d]", *strength, ecc.MaxStrength)
	case *pages < 1:
		usageErr("-pages %d: need at least one page", *pages)
	case *nErrors < 0 || *nErrors > ecc.PageSize*8:
		// A page has only PageSize*8 distinct bit positions to flip.
		usageErr("-errors %d outside [0, %d]", *nErrors, ecc.PageSize*8)
	}
	s := ecc.Strength(*strength)
	codec := ecc.NewCodec()
	lat := ecc.DefaultLatencyModel()
	rng := sim.NewRNG(*seed)

	fmt.Printf("page codec: 2KB data, t=%d, spare use %dB of %dB\n",
		s, codec.SpareBytes(s), ecc.SpareSize)
	fmt.Printf("accelerator model: encode %v, decode (clean) %v, decode (errors) %v\n\n",
		lat.EncodeLatency(s), lat.DecodeLatencyClean(s), lat.DecodeLatency(s))

	corrected, failed := 0, 0
	for p := 0; p < *pages; p++ {
		page := make([]byte, ecc.PageSize)
		for i := range page {
			page[i] = byte(rng.Uint64())
		}
		spare := codec.Encode(s, page)

		ecc.FlipBits(rng, *nErrors, page, nil)

		n, err := codec.Decode(s, page, spare)
		if err != nil {
			failed++
			fmt.Printf("page %2d: %v\n", p, err)
			continue
		}
		corrected += n
	}
	fmt.Printf("\npages: %d, injected %d errors each\n", *pages, *nErrors)
	fmt.Printf("corrected: %d bits total, uncorrectable pages: %d\n", corrected, failed)
	if *nErrors > *strength {
		fmt.Println("(overload case: BCH+CRC must report, not silently corrupt)")
	}
}

// usageErr reports a flag-validation failure as a usage error (exit 2,
// the flag package's convention) before any page is encoded.
func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bchtool: "+format+"\n", args...)
	fmt.Fprintln(os.Stderr, "run with -h for usage")
	os.Exit(2)
}

package experiments

import (
	"bytes"
	"fmt"
	"time"

	"flashdc/internal/hier"
	"flashdc/internal/trace"
	"flashdc/internal/workload"
)

func init() { register("batch_throughput", batchThroughput) }

// batchThroughput measures the replay throughput of the batched
// request pipeline (PR 8): one pre-generated alpha2 stream driven
// through a monolithic hierarchy from the text-format reader and from
// the packed binary format, at batch sizes from 1 (the old
// per-request cadence) to the whole trace. Each row rebuilds an
// identical hierarchy, so the simulated work is constant and the
// column differences isolate the driving overhead — parsing, closure
// calls, and per-batch dispatch.
//
// Like ecc-throughput this table reports wall-clock rates, so
// absolute numbers vary with the host; the shape — binary above text,
// throughput rising with batch size and saturating near DefaultBatch
// — is the stable claim.
func batchThroughput(o Options) *Table {
	n := o.Requests
	if n == 0 {
		n = 200000
	}
	t := &Table{
		ID:    "batch_throughput",
		Title: "Batched replay throughput by trace format and batch size",
		Note: fmt.Sprintf("wall-clock, monolithic hierarchy, alpha2 n=%d; speedup vs text format at batch=1 "+
			"(the per-request cadence of the closure era)", n),
		Header: []string{"format", "batch", "ops_per_s", "speedup"},
	}

	gen := func() workload.Generator {
		g, err := workload.New("alpha2", o.Scale, o.Seed)
		if err != nil {
			panic(fmt.Sprintf("experiments: batch_throughput: %v", err))
		}
		return g
	}

	// Materialise the stream once in both formats.
	var text bytes.Buffer
	tw := trace.NewWriter(&text)
	bin := trace.AppendBinaryHeader(nil)
	g := gen()
	for i := 0; i < n; i++ {
		req := g.Next()
		if err := tw.Write(req); err != nil {
			panic(fmt.Sprintf("experiments: batch_throughput: %v", err))
		}
		bin = trace.AppendBinary(bin, req)
	}
	if err := tw.Flush(); err != nil {
		panic(fmt.Sprintf("experiments: batch_throughput: %v", err))
	}

	cfg := hier.Config{DRAMBytes: 8 << 20, FlashBytes: 64 << 20, Seed: o.Seed}
	source := func(format string) trace.Source {
		switch format {
		case "text":
			return trace.NewStreamSource(trace.NewReader(bytes.NewReader(text.Bytes())))
		case "binary":
			src, err := trace.MapBytes(bin)
			if err != nil {
				panic(fmt.Sprintf("experiments: batch_throughput: %v", err))
			}
			return src
		default:
			panic("experiments: batch_throughput: unknown format " + format)
		}
	}

	// run replays the whole stream once at the given batch granularity
	// and returns sustained requests per second.
	run := func(format string, batch int) float64 {
		sys := hier.New(cfg)
		src := source(format)
		buf := make([]trace.Request, batch)
		start := time.Now()
		consumed := 0
		for consumed < n {
			k := src.Next(buf)
			if k == 0 {
				break
			}
			sys.RunBatch(buf[:k])
			consumed += k
		}
		elapsed := time.Since(start).Seconds()
		if err := trace.SourceErr(src); err != nil {
			panic(fmt.Sprintf("experiments: batch_throughput: %v", err))
		}
		if consumed != n {
			panic(fmt.Sprintf("experiments: batch_throughput: replayed %d of %d requests", consumed, n))
		}
		return float64(n) / elapsed
	}

	var base float64
	for _, format := range []string{"text", "binary"} {
		for _, batch := range []int{1, 64, trace.DefaultBatch, n} {
			ops := run(format, batch)
			if base == 0 {
				base = ops
			}
			label := fmt.Sprintf("%d", batch)
			if batch == n {
				label = "whole"
			}
			t.AddRow(format, label, ops, ops/base)
		}
	}
	return t
}

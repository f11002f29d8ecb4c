package trace_test

import (
	"bytes"
	"testing"

	"flashdc/internal/trace"
	"flashdc/internal/workload"
)

// BenchmarkTraceDecode times the decode of one request from a
// pre-encoded alpha2 stream, in the text format (StreamSource over a
// Reader) and in the packed binary format (MapBytes). The simulated
// work is nil, so the two rows isolate the cost of each format on the
// replay path. Reopening the source at the end of the stream happens
// with the timer stopped, so neither the time nor the allocations of
// setup count.
func BenchmarkTraceDecode(b *testing.B) {
	const n = 200000
	gen, err := workload.New("alpha2", 1.0/16, 1)
	if err != nil {
		b.Fatal(err)
	}
	var text bytes.Buffer
	tw := trace.NewWriter(&text)
	bin := trace.AppendBinaryHeader(nil)
	for i := 0; i < n; i++ {
		req := gen.Next()
		if err := tw.Write(req); err != nil {
			b.Fatal(err)
		}
		bin = trace.AppendBinary(bin, req)
	}
	if err := tw.Flush(); err != nil {
		b.Fatal(err)
	}

	for _, format := range []struct {
		name string
		open func() (trace.Source, error)
	}{
		{"text", func() (trace.Source, error) {
			return trace.NewStreamSource(trace.NewReader(bytes.NewReader(text.Bytes()))), nil
		}},
		{"binary", func() (trace.Source, error) { return trace.MapBytes(bin) }},
	} {
		b.Run(format.name, func(b *testing.B) {
			src, err := format.open()
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]trace.Request, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if src.Next(buf) == 1 {
					continue
				}
				b.StopTimer()
				if err := trace.SourceErr(src); err != nil {
					b.Fatal(err)
				}
				if src, err = format.open(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if src.Next(buf) != 1 {
					b.Fatal("empty trace")
				}
			}
		})
	}
}

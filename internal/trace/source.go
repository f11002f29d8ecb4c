package trace

import "io"

// DefaultBatch is the bulk-fill granularity drivers use when the
// caller does not choose one: large enough to amortise per-batch
// dispatch across thousands of requests, small enough that the
// working buffer (16 bytes per request) stays comfortably inside L2.
const DefaultBatch = 4096

// Source yields a request stream in bulk: Next fills buf from the
// front and returns how many requests were written. A return of 0
// means the stream is exhausted (a Source must keep returning 0 once
// it has); Next is never called with an empty buffer. Sources that can
// fail mid-stream (parsers, mapped files) additionally implement Err,
// which drivers consult once Next returns 0.
//
// engine.Engine.RunSource consumes it directly.
type Source interface {
	Next(buf []Request) int
}

// ErrSource is the optional error-reporting extension of Source.
type ErrSource interface {
	Source
	// Err returns the sticky stream error that ended the stream early,
	// or nil for a clean end.
	Err() error
}

// SliceSource yields the requests of reqs in order, once.
type SliceSource struct {
	reqs []Request
	off  int
}

// NewSliceSource wraps an in-memory request slice. The slice is not
// copied; the caller must not mutate it while the source is in use.
func NewSliceSource(reqs []Request) *SliceSource { return &SliceSource{reqs: reqs} }

// Next implements Source.
func (s *SliceSource) Next(buf []Request) int {
	n := copy(buf, s.reqs[s.off:])
	s.off += n
	return n
}

// Reset rewinds the source to the start of the slice.
func (s *SliceSource) Reset() { s.off = 0 }

// Len returns the total number of requests in the underlying slice.
func (s *SliceSource) Len() int { return len(s.reqs) }

// StreamSource adapts the text-format Reader to a Source using the
// allocation-free ReadInto. A parse error ends the stream and is
// reported by Err.
type StreamSource struct {
	r   *Reader
	err error
}

// NewStreamSource wraps a text-format reader.
func NewStreamSource(r *Reader) *StreamSource { return &StreamSource{r: r} }

// Next implements Source.
func (s *StreamSource) Next(buf []Request) int {
	if s.err != nil {
		return 0
	}
	n := 0
	for n < len(buf) {
		if err := s.r.ReadInto(&buf[n]); err != nil {
			s.err = err
			break
		}
		n++
	}
	return n
}

// Err implements ErrSource: it reports the error that ended the
// stream, or nil when the trace ended cleanly at io.EOF.
func (s *StreamSource) Err() error {
	if s.err == io.EOF {
		return nil
	}
	return s.err
}

// CountingSource wraps a Source and folds every yielded request into a
// Stats accumulator, so drivers that report stream footprints (fdcsim)
// keep their accounting without re-walking the stream.
type CountingSource struct {
	src   Source
	stats *Stats
}

// NewCountingSource tees src's requests into stats.
func NewCountingSource(src Source, stats *Stats) *CountingSource {
	return &CountingSource{src: src, stats: stats}
}

// Next implements Source.
func (c *CountingSource) Next(buf []Request) int {
	n := c.src.Next(buf)
	for i := 0; i < n; i++ {
		c.stats.Add(buf[i])
	}
	return n
}

// Err implements ErrSource by delegating to the wrapped source.
func (c *CountingSource) Err() error { return SourceErr(c.src) }

// SourceErr returns src's sticky stream error when it implements
// ErrSource, and nil otherwise. Drivers call it once Next returns 0 to
// distinguish a clean end of stream from a truncated one.
func SourceErr(src Source) error {
	if es, ok := src.(ErrSource); ok {
		return es.Err()
	}
	return nil
}

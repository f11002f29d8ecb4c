package hier

import "flashdc/internal/trace"

// RunBatch services every request of batch in order through Handle and
// returns len(batch). Degraded-service conditions surface through Err,
// as with Handle's error, which is sticky.
func (s *System) RunBatch(batch []trace.Request) int {
	for _, r := range batch {
		s.Handle(r)
	}
	return len(batch)
}

// RunSource drains up to n requests from src through RunBatch in
// DefaultBatch-sized chunks, returning the number consumed (short only
// when src ends early).
func (s *System) RunSource(src trace.Source, n int) int {
	if s.runBuf == nil {
		s.runBuf = make([]trace.Request, trace.DefaultBatch)
	}
	consumed := 0
	for consumed < n {
		chunk := len(s.runBuf)
		if rem := n - consumed; rem < chunk {
			chunk = rem
		}
		k := src.Next(s.runBuf[:chunk])
		if k == 0 {
			break
		}
		consumed += s.RunBatch(s.runBuf[:k])
	}
	return consumed
}

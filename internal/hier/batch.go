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

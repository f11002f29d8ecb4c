package hier

import "flashdc/internal/trace"

// RunBatch services every request of batch in order through Handle and
// returns len(batch). A dead Flash tier surfaces through Err.
func (s *System) RunBatch(batch []trace.Request) int {
	for _, r := range batch {
		s.Handle(r)
	}
	return len(batch)
}

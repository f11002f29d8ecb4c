package workload

import "flashdc/internal/trace"

// generatorSource adapts a Generator to the batch pipeline.
type generatorSource struct {
	g Generator
}

// AsSource adapts a workload generator to an unbounded trace.Source:
// every bulk fill draws the next len(buf) requests of the generator's
// deterministic stream. Bound it with the driver's request budget
// (engine.Engine.RunSource takes n).
func AsSource(g Generator) trace.Source { return generatorSource{g: g} }

func (s generatorSource) Next(buf []trace.Request) int {
	for i := range buf {
		buf[i] = s.g.Next()
	}
	return len(buf)
}

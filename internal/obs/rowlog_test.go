package obs

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"flashdc/internal/sim"
)

// logInterval is the MetricsInterval of the row-log tests' observers.
const logInterval = 10

// row is one collector report: the values every series takes in one
// snapshot. Its series are c0.., g0.. and, with buckets, one histogram
// h whose bounds are 1, 2, ...
type row struct {
	counters   []int64
	gauges     []float64
	buckets    []int64
	count, sum int64
}

// counterNames and gaugeNames name the series of the widest row, and
// bucketBounds holds the histogram bounds of every row.
var (
	counterNames, gaugeNames = seriesNames("c", 55), seriesNames("g", 10)
	bucketBounds             = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
)

func seriesNames(prefix string, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return names
}

func (r row) report(s *Sample) {
	for i, v := range r.counters {
		s.Counter(counterNames[i], v)
	}
	for i, v := range r.gauges {
		s.Gauge(gaugeNames[i], v)
	}
	if r.buckets != nil {
		bounds := bucketBounds[:len(r.buckets)-1]
		s.Histogram("h", HistogramSnapshot{Bounds: bounds, Buckets: r.buckets, Count: r.count, Sum: r.sum})
	}
}

// logRows feeds rows to a fresh observer, advancing the clock steps[i]
// intervals (1 when steps is nil) before rows[i] is reported. It
// returns the observer, the rows the collector reported, one per
// snapshot taken (the rows the observer used to keep whole), and the
// log's size after each step.
func logRows(rows []row, steps []int) (o *Observer, taken []row, ends []int) {
	var clk sim.Clock
	o = New(Options{MetricsInterval: logInterval})
	o.SetClock(&clk)
	var cur row
	o.RegisterCollector(func(s *Sample) {
		cur.report(s)
		taken = append(taken, cur)
	})
	for i, r := range rows {
		cur = r
		step := 1
		if steps != nil {
			step = steps[i]
		}
		clk.Advance(sim.Duration(step * logInterval))
		o.MaybeSnapshot(clk.Now())
		ends = append(ends, o.rows.size)
	}
	return o, taken, ends
}

// sameRows fails unless got holds exactly the interval rows want, bit
// for bit (gauges compared by their IEEE bits), with Seq i and T (i+1)
// intervals.
func sameRows(t *testing.T, got []Snapshot, want []row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d rows, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Seq != int64(i) || g.T != int64(i+1)*logInterval || g.Final {
			t.Fatalf("row %d: seq=%d t=%d final=%v", i, g.Seq, g.T, g.Final)
		}
		if !slices.Equal(g.counters, w.counters) {
			t.Fatalf("row %d counters %v, want %v", i, g.counters, w.counters)
		}
		if !slices.EqualFunc(g.gauges, w.gauges, func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b)
		}) {
			t.Fatalf("row %d gauges %v, want %v", i, g.gauges, w.gauges)
		}
		if w.buckets == nil {
			if len(g.histograms) != 0 {
				t.Fatalf("row %d has histograms %v", i, g.histograms)
			}
			continue
		}
		h := g.histograms[0]
		if len(g.histograms) != 1 || len(h.Bounds) != len(w.buckets)-1 ||
			!slices.Equal(h.Buckets, w.buckets) || h.Count != w.count || h.Sum != w.sum {
			t.Fatalf("row %d histogram %+v, want %+v", i, g.histograms, w)
		}
	}
}

// TestRowLogLockstep: rows at the edges of every encoding decode bit
// for bit to the rows the collector reported.
func TestRowLogLockstep(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_0000_0001) // NaN with a payload
	rows := []row{
		{counters: []int64{0, 5, math.MaxInt64}, gauges: []float64{0, 1.5, nan, math.Inf(1)},
			buckets: []int64{0, 0, 0}},
		// Counters cross the int64 extremes both ways.
		{counters: []int64{math.MinInt64, 5, math.MinInt64}, gauges: []float64{math.Copysign(0, -1), 1.5, nan, math.Inf(-1)},
			buckets: []int64{1, 0, 0}, count: 1, sum: 7},
		{counters: []int64{math.MaxInt64, 5, 0}, gauges: []float64{0, math.NaN(), math.Inf(1), -1e308},
			buckets: []int64{1, math.MaxInt64, 3}, count: math.MinInt64, sum: math.MaxInt64},
		// Counters fall, as after ResetStats.
		{counters: []int64{0, 0, -3}, gauges: []float64{math.SmallestNonzeroFloat64, 1.5, 0, 0},
			buckets: []int64{0, 0, 0}},
		// An unchanged row costs its mask: one bit per value.
		{counters: []int64{0, 0, -3}, gauges: []float64{math.SmallestNonzeroFloat64, 1.5, 0, 0},
			buckets: []int64{0, 0, 0}},
	}
	o, taken, ends := logRows(rows, nil)
	sameRows(t, o.Snapshots(), taken)
	if n := ends[4] - ends[3]; n != (3+4+3+2+7)/8 {
		t.Fatalf("an unchanged row took %d bytes, want its 2-byte mask", n)
	}
	// The live row is a copy of the newest one, kept whole.
	if live := o.Live(); !reflect.DeepEqual(*live, *o.rows.last) || live.Seq != int64(len(rows)-1) {
		t.Fatalf("live row %+v, newest row %+v", live, o.rows.last)
	}
}

// observedRows returns n rows of the shape one shard of a two-shard
// alpha2 replay reports (55 counters, 5 gauges and a 14-bucket latency
// histogram: 76 values), in which 32 of the values change from one row
// to the next, by steps of one to about a million.
func observedRows(n int) []row {
	rng := rand.New(rand.NewPCG(3, 4))
	r := row{counters: make([]int64, 55), gauges: make([]float64, 5), buckets: make([]int64, 14)}
	rows := make([]row, n)
	for i := range rows {
		r = row{counters: slices.Clone(r.counters), gauges: slices.Clone(r.gauges),
			buckets: slices.Clone(r.buckets), count: r.count, sum: r.sum}
		for j := range 24 {
			r.counters[j] += 1 + rng.Int64N(1<<(2*(j%11)))
		}
		r.gauges[0] = float64(rng.IntN(16384))
		r.gauges[1]++
		for j := range 4 {
			d := 1 + rng.Int64N(100)
			r.buckets[j] += d
			r.count += d
			r.sum += d * int64(j+1) * 30_000
		}
		rows[i] = r
	}
	return rows
}

// TestTakingRowsAllocatesNothing: once an observer's first two rows
// have sized its two row buffers, taking a row allocates nothing until
// the row log needs another chunk.
func TestTakingRowsAllocatesNothing(t *testing.T) {
	rows := observedRows(8)
	var clk sim.Clock
	o := New(Options{MetricsInterval: logInterval})
	o.SetClock(&clk)
	n := 0
	o.RegisterCollector(func(s *Sample) { rows[n%len(rows)].report(s) })
	take := func() {
		n++
		clk.Advance(logInterval)
		o.MaybeSnapshot(clk.Now())
	}
	take()
	take()
	chunks := len(o.rows.chunks)
	if a := testing.AllocsPerRun(200, take); a != 0 {
		t.Fatalf("taking a row allocated %v times", a)
	}
	if len(o.rows.chunks) != chunks || o.rows.rows != n {
		t.Fatalf("%d rows in %d chunks: the measured rows must fit the first chunk", o.rows.rows, len(o.rows.chunks))
	}
}

// BenchmarkRowLogDecode times Snapshots over 10,000 rows of
// observedRows' shape, and reports the cost per row.
func BenchmarkRowLogDecode(b *testing.B) {
	const n = 10_000
	o, _, ends := logRows(observedRows(n), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := len(o.Snapshots()); got != n {
			b.Fatalf("decoded %d rows, want %d", got, n)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
	b.ReportMetric(float64(ends[n-1])/n, "encoded-B/row")
}

// TestRowLogSeveralBoundaries: one MaybeSnapshot call that crosses
// several interval boundaries logs one row per boundary, and the final
// row follows them.
func TestRowLogSeveralBoundaries(t *testing.T) {
	rows := []row{{counters: []int64{1}}, {counters: []int64{4}}, {counters: []int64{9}}}
	o, taken, _ := logRows(rows, []int{3, 1, 4})
	if len(taken) != 8 {
		t.Fatalf("took %d rows, want 8", len(taken))
	}
	o.Finish()
	snaps := o.Snapshots()
	sameRows(t, snaps[:8], taken)
	if fin := snaps[8]; len(snaps) != 9 || !fin.Final || fin.Seq != FinalSeq || fin.Counter("c0") != 9 {
		t.Fatalf("final row %+v of %d", fin, len(snaps))
	}
}

// TestRowLogSpansChunks: rows of incompressible values fill several
// chunks, rows straddle chunk edges, and the log retains less than one
// chunk more than it holds.
func TestRowLogSpansChunks(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	rows := make([]row, 200)
	for i := range rows {
		r := row{counters: make([]int64, 40), gauges: make([]float64, 10), buckets: make([]int64, 6)}
		for j := range r.counters {
			r.counters[j] = int64(rng.Uint64())
		}
		for j := range r.gauges {
			r.gauges[j] = math.Float64frombits(rng.Uint64())
		}
		for j := range r.buckets {
			r.buckets[j] = int64(rng.Uint64())
		}
		r.count, r.sum = int64(rng.Uint64()), int64(rng.Uint64())
		rows[i] = r
	}
	o, taken, ends := logRows(rows, nil)
	sameRows(t, o.Snapshots(), taken)
	l := &o.rows
	straddle := 0
	for i := 1; i < len(ends); i++ {
		if ends[i-1]/rowChunk != ends[i]/rowChunk && ends[i]%rowChunk != 0 {
			straddle++
		}
	}
	if len(l.chunks) < 2 || straddle == 0 {
		t.Fatalf("%d bytes in %d chunks, %d rows straddle a chunk edge: want several of both",
			l.size, len(l.chunks), straddle)
	}
	held := 0
	for _, c := range l.chunks {
		if cap(c) != rowChunk {
			t.Fatalf("chunk capacity %d, want %d", cap(c), rowChunk)
		}
		held += len(c)
	}
	if held != l.size || len(l.chunks)*rowChunk-l.size >= rowChunk {
		t.Fatalf("%d chunks hold %d bytes for a %d-byte log", len(l.chunks), held, l.size)
	}
}

// FuzzRowLog: any row sequence, of any shape and with any number of
// boundaries crossed per call, decodes bit for bit to the rows the
// collector reported. A pattern byte gives each value one of four
// behaviours: steps and jumps the input picks, never changing after
// the first row, changing on every row, or alternating between two
// values, so masks come all clear, all set and in every mix.
func FuzzRowLog(f *testing.F) {
	f.Add([]byte{3, 2, 4, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 1, 0, 0, 255, 255, 255, 255, 255, 255, 255, 255, 255, 127, 0x80, 0, 0, 0, 0, 0, 0xf0, 0x7f})
	f.Add([]byte{0, 0, 0, 0, 2, 2, 2})
	f.Add([]byte{7, 3, 4, 0x55, 0xf0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 0, 0, 0, 0})                      // never change
	f.Add([]byte{7, 3, 4, 0xaa, 0xf0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 1, 1, 1, 1, 1, 1}) // change every row
	f.Add([]byte{7, 3, 4, 0xff, 0xf0, 0, 0, 0, 0, 0, 0, 0, 0x80, 2, 0, 1, 2, 0, 1, 2})                   // alternate
	f.Add([]byte{7, 3, 4, 0xe4, 3, 0xf1, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 0, 2, 1, 0})                      // all four
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		nc, ng, nb, pat := int(data[0]%8), int(data[1]%4), int(data[2]%5), data[3]
		data = data[4:]
		// word consumes one byte that picks a small step from prev, or
		// the next eight bytes taken whole.
		word := func(prev uint64) uint64 {
			if len(data) == 0 {
				return prev
			}
			b := data[0]
			data = data[1:]
			if b < 0xf0 {
				return prev + uint64(int8(b))
			}
			var w [8]byte
			data = data[copy(w[:], data):]
			return binary.LittleEndian.Uint64(w[:])
		}
		// value returns value v of row n, whose previous value was prev
		// and whose first-row value was first.
		var firsts []uint64
		value := func(v, n int, prev uint64) uint64 {
			if n == 0 {
				firsts = append(firsts, word(prev))
				return firsts[v]
			}
			switch pat >> (2 * (v % 4)) & 3 {
			case 1: // never changes
				return prev
			case 2: // changes every row
				return prev + uint64(n)
			case 3: // alternates
				return firsts[v] ^ uint64(n%2)*0x8000_0000_0000_0001
			}
			return word(prev)
		}
		var rows []row
		var steps []int
		prev := row{counters: make([]int64, nc), gauges: make([]float64, ng)}
		if nb > 0 {
			prev.buckets = make([]int64, nb)
		}
		for len(data) > 0 && len(rows) < 512 {
			n := len(rows)
			steps = append(steps, 1+int(data[0]%3))
			data = data[1:]
			r := row{counters: make([]int64, nc), gauges: make([]float64, ng)}
			v := 0
			next := func(prev uint64) uint64 {
				v++
				return value(v-1, n, prev)
			}
			for i := range r.counters {
				r.counters[i] = int64(next(uint64(prev.counters[i])))
			}
			for i := range r.gauges {
				r.gauges[i] = math.Float64frombits(next(math.Float64bits(prev.gauges[i])))
			}
			if nb > 0 {
				r.buckets = make([]int64, nb)
				for i := range r.buckets {
					r.buckets[i] = int64(next(uint64(prev.buckets[i])))
				}
				r.count = int64(next(uint64(prev.count)))
				r.sum = int64(next(uint64(prev.sum)))
			}
			rows = append(rows, r)
			prev = r
		}
		o, taken, _ := logRows(rows, steps)
		sameRows(t, o.Snapshots(), taken)
	})
}

package obs

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"

	"flashdc/internal/sim"
)

// rowChunk is the size of one row-log chunk. The log grows one chunk
// at a time, so the capacity it retains stays within one chunk of the
// bytes it holds.
const rowChunk = 64 << 10

// rowLog keeps an observer's interval rows: the newest whole, and every
// row as bytes, encoded against the row before it (the first against a
// row of zeros). A row's values are, in order, its counters, its gauges
// and each histogram's buckets, Count and Sum. A row is encoded as
//
//   - a change mask of ceil(values/8) bytes, bit i%8 of byte i/8 set
//     when value i differs from the previous row's;
//   - then, for each changed value in order, a counter, bucket, Count
//     or Sum as the zigzag varint of its wrapping int64 difference, and
//     a gauge as the uvarint of its IEEE bits XORed with the previous
//     row's, so NaN and -0 round-trip exactly.
//
// An unchanged row therefore costs its mask. The bytes hold nothing
// else. Row i's Seq is i and its T is (i+1) intervals; its series names
// and histogram bounds are the observer's series, which the first
// snapshot fixed.
type rowLog struct {
	chunks [][]byte
	// last is the newest row, kept whole as the base of the next one;
	// spare is the buffer the next row is taken into. add swaps them,
	// so after the first two rows taking a row allocates nothing.
	last, spare *Snapshot
	// rows counts the rows appended; size counts their encoded bytes.
	rows, size int
	// buf is the scratch the row being appended is encoded into.
	buf []byte
}

// next returns the buffer the next row is to be taken into: the row
// add will append.
func (l *rowLog) next() *Snapshot {
	if l.spare == nil {
		l.spare = &Snapshot{}
	}
	return l.spare
}

// width returns the number of values in a row of s's shape.
func width(s *Snapshot) int {
	n := len(s.counters) + len(s.gauges)
	for _, h := range s.histograms {
		n += len(h.Buckets) + 2
	}
	return n
}

// rowEncoder appends one row's changed values to b, whose first bytes
// are the row's change mask; i is the index of the next value.
type rowEncoder struct {
	b []byte
	i int
}

// varint appends d's zigzag encoding as uvarint does.
func (e *rowEncoder) varint(d int64) { e.uvarint(uint64(d<<1) ^ uint64(d>>63)) }

// uvarint marks the next value changed and appends x, unless x is 0.
func (e *rowEncoder) uvarint(x uint64) {
	if x != 0 {
		e.b[e.i>>3] |= 1 << (e.i & 7)
		e.b = binary.AppendUvarint(e.b, x)
	}
	e.i++
}

// add appends the row next returned, encoded against the newest row,
// and makes it the newest row. The previous newest row becomes the
// spare.
func (l *rowLog) add(s *Snapshot) {
	prev := l.last
	if prev == nil {
		z := s.names.zero()
		prev = &z
	}
	nm := (width(s) + 7) / 8
	e := rowEncoder{b: slices.Grow(l.buf[:0], nm)[:nm]}
	clear(e.b)
	for i, v := range s.counters {
		e.varint(v - prev.counters[i])
	}
	for i, v := range s.gauges {
		e.uvarint(math.Float64bits(v) ^ math.Float64bits(prev.gauges[i]))
	}
	for i, h := range s.histograms {
		p := &prev.histograms[i]
		for j, v := range h.Buckets {
			e.varint(v - p.Buckets[j])
		}
		e.varint(h.Count - p.Count)
		e.varint(h.Sum - p.Sum)
	}
	b := e.b
	l.buf = b
	l.last, l.spare = s, prev
	l.rows++
	l.size += len(b)
	for len(b) > 0 {
		if n := len(l.chunks); n == 0 || len(l.chunks[n-1]) == rowChunk {
			l.chunks = append(l.chunks, make([]byte, 0, rowChunk))
		}
		last := &l.chunks[len(l.chunks)-1]
		k := min(len(b), rowChunk-len(*last))
		*last = append(*last, b[:k]...)
		b = b[k:]
	}
}

// decode returns every row in the log as a Snapshot of its own, for
// an observer with series names taking a row every interval.
func (l *rowLog) decode(names *series, interval sim.Duration) []Snapshot {
	out := make([]Snapshot, l.rows, l.rows+1) // room for the final row
	if l.rows == 0 {
		return out
	}
	nc, ng, nh := len(names.counters), len(names.gauges), len(names.histograms)
	nb := 0
	for _, b := range names.bounds {
		nb += len(b) + 1
	}
	counters := make([]int64, l.rows*nc)
	gauges := make([]float64, l.rows*ng)
	histograms := make([]HistogramSnapshot, l.rows*nh)
	buckets := make([]int64, l.rows*nb)
	// w holds the row's values in row order, gauges as their IEEE
	// bits: the previous row's until the changed ones are applied.
	w := make([]int64, nc+ng+nb+2*nh)
	nm := (len(w) + 7) / 8
	r := rowReader{rest: l.chunks, scratch: make([]byte, nm)}
	for i := range out {
		// Apply the changed values: a gauge's XOR, every other value's
		// zigzag difference.
		for k, m := range r.mask(nm) {
			for ; m != 0; m &= m - 1 {
				j := k*8 + bits.TrailingZeros8(m)
				u, n := binary.Uvarint(r.cur)
				if n > 0 {
					r.cur = r.cur[n:]
				} else {
					u = r.uvarint() // it may straddle a chunk edge
				}
				if uint(j-nc) < uint(ng) {
					w[j] ^= int64(u)
				} else {
					w[j] += int64(u>>1) ^ -int64(u&1)
				}
			}
		}
		s := Snapshot{Seq: int64(i), T: int64(interval) * int64(i+1), names: names,
			counters:   counters[i*nc : (i+1)*nc : (i+1)*nc],
			gauges:     gauges[i*ng : (i+1)*ng : (i+1)*ng],
			histograms: histograms[i*nh : (i+1)*nh : (i+1)*nh],
		}
		copy(s.counters, w)
		for j := range s.gauges {
			s.gauges[j] = math.Float64frombits(uint64(w[nc+j]))
		}
		v := w[nc+ng:]
		for j, bounds := range names.bounds {
			n := len(bounds) + 1
			h := HistogramSnapshot{Bounds: bounds, Buckets: buckets[:n:n], Count: v[n], Sum: v[n+1]}
			copy(h.Buckets, v)
			s.histograms[j] = h
			buckets, v = buckets[n:], v[n+2:]
		}
		out[i] = s
	}
	return out
}

// rowReader reads a row log's chunks as one byte stream: straight from
// the current chunk, and a byte at a time only where a mask or a
// varint may straddle a chunk edge.
type rowReader struct {
	cur  []byte
	rest [][]byte
	// scratch holds a mask that straddles a chunk edge.
	scratch []byte
}

// mask returns the next row's nm-byte change mask.
func (r *rowReader) mask(nm int) []byte {
	if len(r.cur) >= nm {
		m := r.cur[:nm]
		r.cur = r.cur[nm:]
		return m
	}
	m := r.scratch[:nm]
	for i := range m {
		m[i] = r.readByte()
	}
	return m
}

// readByte returns the next byte, moving into the next chunk when the
// current one is spent.
func (r *rowReader) readByte() byte {
	for len(r.cur) == 0 {
		if len(r.rest) == 0 {
			panic("obs: row log: unexpected end")
		}
		r.cur, r.rest = r.rest[0], r.rest[1:]
	}
	b := r.cur[0]
	r.cur = r.cur[1:]
	return b
}

// uvarint reads a uvarint a byte at a time, which may straddle a chunk
// edge. It panics on a malformed value: the log holds only what add
// wrote, so one is a bug.
func (r *rowReader) uvarint() uint64 {
	var v uint64
	for shift := 0; shift < 64; shift += 7 {
		b := r.readByte()
		if b < 0x80 {
			if shift == 63 && b > 1 {
				break
			}
			return v | uint64(b)<<shift
		}
		v |= uint64(b&0x7f) << shift
	}
	panic("obs: row log: varint overflows 64 bits")
}

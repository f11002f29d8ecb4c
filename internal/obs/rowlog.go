package obs

import (
	"encoding/binary"
	"io"
	"math"

	"flashdc/internal/sim"
)

// rowChunk is the size of one row-log chunk. The log grows one chunk
// at a time, so the capacity it retains stays within one chunk of the
// bytes it holds.
const rowChunk = 64 << 10

// rowLog keeps an observer's interval rows: the newest whole, and every
// row as bytes, encoded against the row before it (the first against a
// row of zeros):
//
//   - every counter, histogram bucket, Count and Sum as the zigzag
//     varint of its wrapping int64 difference;
//   - every gauge as the uvarint of its IEEE bits XORed with the
//     previous row's, so an unchanged gauge costs one byte and NaN and
//     -0 round-trip exactly.
//
// The bytes hold nothing else. Row i's Seq is i and its T is (i+1)
// intervals; its series names and histogram bounds are the observer's
// series, which the first snapshot fixed.
type rowLog struct {
	chunks [][]byte
	// last is the newest row, kept whole as the base of the next one.
	last *Snapshot
	// rows counts the rows appended; size counts their encoded bytes.
	rows, size int
	// buf is the scratch the row being appended is encoded into.
	buf []byte
}

// add appends s, encoded against the newest row, and makes s the
// newest row. s must not be modified afterwards.
func (l *rowLog) add(s *Snapshot) {
	prev := l.last
	if prev == nil {
		z := s.names.zero()
		prev = &z
	}
	b := l.buf[:0]
	for i, v := range s.counters {
		b = binary.AppendVarint(b, v-prev.counters[i])
	}
	for i, v := range s.gauges {
		b = binary.AppendUvarint(b, math.Float64bits(v)^math.Float64bits(prev.gauges[i]))
	}
	for i, h := range s.histograms {
		p := prev.histograms[i]
		for j, v := range h.Buckets {
			b = binary.AppendVarint(b, v-p.Buckets[j])
		}
		b = binary.AppendVarint(b, h.Count-p.Count)
		b = binary.AppendVarint(b, h.Sum-p.Sum)
	}
	l.buf = b
	l.last = s
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
	r := rowReader{rest: l.chunks}
	prev := names.zero()
	for i := range out {
		s := Snapshot{Seq: int64(i), T: int64(interval) * int64(i+1), names: names,
			counters:   counters[i*nc : (i+1)*nc : (i+1)*nc],
			gauges:     gauges[i*ng : (i+1)*ng : (i+1)*ng],
			histograms: histograms[i*nh : (i+1)*nh : (i+1)*nh],
		}
		for j := range s.counters {
			s.counters[j] = prev.counters[j] + r.varint()
		}
		for j := range s.gauges {
			s.gauges[j] = math.Float64frombits(math.Float64bits(prev.gauges[j]) ^ r.uvarint())
		}
		for j := range s.histograms {
			p := prev.histograms[j]
			n := len(p.Buckets)
			h := HistogramSnapshot{Bounds: names.bounds[j], Buckets: buckets[:n:n]}
			buckets = buckets[n:]
			for k := range h.Buckets {
				h.Buckets[k] = p.Buckets[k] + r.varint()
			}
			h.Count = p.Count + r.varint()
			h.Sum = p.Sum + r.varint()
			s.histograms[j] = h
		}
		out[i] = s
		prev = s
	}
	return out
}

// rowReader reads a row log's chunks as one byte stream.
type rowReader struct {
	cur  []byte
	rest [][]byte
}

func (r *rowReader) ReadByte() (byte, error) {
	for len(r.cur) == 0 {
		if len(r.rest) == 0 {
			return 0, io.EOF
		}
		r.cur, r.rest = r.rest[0], r.rest[1:]
	}
	b := r.cur[0]
	r.cur = r.cur[1:]
	return b, nil
}

// varint and uvarint panic on an error: the log holds only what add
// wrote, so a short or malformed value is a bug.
func (r *rowReader) varint() int64 {
	v, err := binary.ReadVarint(r)
	if err != nil {
		panic("obs: row log: " + err.Error())
	}
	return v
}

func (r *rowReader) uvarint() uint64 {
	v, err := binary.ReadUvarint(r)
	if err != nil {
		panic("obs: row log: " + err.Error())
	}
	return v
}

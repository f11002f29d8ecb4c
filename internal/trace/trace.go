// Package trace defines the disk access trace format shared by the
// workload generators, the Flash disk cache simulator and the
// experiment harness — the equivalent of the paper's disk traces
// (Table 4) fed to its "light weight trace based Flash disk cache
// simulator".
//
// Requests address 2KB disk pages (the cache management granularity).
// The text serialisation is one request per line: "R <page> <count>"
// or "W <page> <count>".
package trace

import (
	"bufio"
	"fmt"
	"io"
)

// Op is a request direction.
type Op uint8

const (
	// OpRead fetches pages.
	OpRead Op = iota
	// OpWrite stores pages.
	OpWrite
)

// String implements fmt.Stringer.
func (o Op) String() string {
	if o == OpRead {
		return "R"
	}
	return "W"
}

// Request is one disk access: Pages consecutive 2KB pages starting at
// page number LBA.
type Request struct {
	Op    Op
	LBA   int64
	Pages int
}

// Expand invokes fn for every page of the request in order.
func (r Request) Expand(fn func(lba int64)) {
	n := r.Pages
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		fn(r.LBA + int64(i))
	}
}

// Stats summarises a request stream.
type Stats struct {
	Requests    int64
	ReadPages   int64
	WritePages  int64
	uniquePages map[int64]struct{}
}

// NewStats returns an empty accumulator.
func NewStats() *Stats {
	return &Stats{uniquePages: make(map[int64]struct{})}
}

// Add accumulates one request.
func (s *Stats) Add(r Request) {
	s.Requests++
	r.Expand(func(lba int64) {
		if r.Op == OpRead {
			s.ReadPages++
		} else {
			s.WritePages++
		}
		s.uniquePages[lba] = struct{}{}
	})
}

// UniquePages returns the footprint in distinct pages.
func (s *Stats) UniquePages() int64 { return int64(len(s.uniquePages)) }

// WorkingSetBytes returns the footprint in bytes (2KB pages).
func (s *Stats) WorkingSetBytes() int64 { return s.UniquePages() * 2048 }

// WriteFraction returns written pages over all pages.
func (s *Stats) WriteFraction() float64 {
	total := s.ReadPages + s.WritePages
	if total == 0 {
		return 0
	}
	return float64(s.WritePages) / float64(total)
}

// Writer serialises requests in the text format.
type Writer struct {
	w *bufio.Writer
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

// Write emits one request.
func (t *Writer) Write(r Request) error {
	n := r.Pages
	if n < 1 {
		n = 1
	}
	_, err := fmt.Fprintf(t.w, "%s %d %d\n", r.Op, r.LBA, n)
	return err
}

// Flush drains buffered output.
func (t *Writer) Flush() error { return t.w.Flush() }

// Reader parses the text format.
type Reader struct {
	s    *bufio.Scanner
	line int
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &Reader{s: s}
}

// Read returns the next request, or io.EOF when exhausted.
func (t *Reader) Read() (Request, error) {
	var req Request
	if err := t.ReadInto(&req); err != nil {
		return Request{}, err
	}
	return req, nil
}

// ReadInto parses the next request into *req, returning io.EOF when
// the stream is exhausted. Unlike Read it is allocation-free on the
// success path: the line is tokenised byte-wise from the scanner's
// internal buffer, so a Source adapter can stream a multi-gigabyte
// text trace without a per-request escape to the heap.
func (t *Reader) ReadInto(req *Request) error {
	for t.s.Scan() {
		t.line++
		line := t.s.Bytes()
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		rest, op, ok := nextField(line)
		if !ok {
			return fmt.Errorf("trace: line %d: want \"OP LBA PAGES\"", t.line)
		}
		switch {
		case len(op) == 1 && op[0] == 'R':
			req.Op = OpRead
		case len(op) == 1 && op[0] == 'W':
			req.Op = OpWrite
		default:
			return fmt.Errorf("trace: line %d: unknown op %q", t.line, op)
		}
		rest, lbaField, ok := nextField(rest)
		if !ok {
			return fmt.Errorf("trace: line %d: want \"OP LBA PAGES\"", t.line)
		}
		lba, err := parseInt(lbaField)
		if err != nil {
			return fmt.Errorf("trace: line %d: %v", t.line, err)
		}
		_, pagesField, ok := nextField(rest)
		if !ok {
			return fmt.Errorf("trace: line %d: want \"OP LBA PAGES\"", t.line)
		}
		pages, err := parseInt(pagesField)
		if err != nil {
			return fmt.Errorf("trace: line %d: %v", t.line, err)
		}
		req.LBA = lba
		req.Pages = int(pages)
		if req.Pages < 1 || int64(int(pages)) != pages || req.LBA < 0 {
			return fmt.Errorf("trace: line %d: bad request %+v", t.line, *req)
		}
		return nil
	}
	if err := t.s.Err(); err != nil {
		return err
	}
	return io.EOF
}

// nextField skips leading spaces/tabs in b and returns the remainder
// after the first whitespace-delimited token, the token itself, and
// whether one was found.
func nextField(b []byte) (rest, field []byte, ok bool) {
	i := 0
	for i < len(b) && (b[i] == ' ' || b[i] == '\t') {
		i++
	}
	start := i
	for i < len(b) && b[i] != ' ' && b[i] != '\t' {
		i++
	}
	if i == start {
		return b[i:], nil, false
	}
	return b[i:], b[start:i], true
}

// parseInt is a minimal base-10 signed parser over a byte field with
// overflow detection, mirroring what fmt.Sscanf "%d" accepted without
// the string conversion.
func parseInt(b []byte) (int64, error) {
	neg := false
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		neg = b[0] == '-'
		b = b[1:]
	}
	if len(b) == 0 {
		return 0, fmt.Errorf("bad integer %q", b)
	}
	var v int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("bad integer %q", b)
		}
		d := int64(c - '0')
		if v > (1<<63-1-d)/10 {
			return 0, fmt.Errorf("integer %q out of range", b)
		}
		v = v*10 + d
	}
	if neg {
		v = -v
	}
	return v, nil
}

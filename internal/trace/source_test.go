package trace

import (
	"strings"
	"testing"
)

func reqN(n int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		op := OpRead
		if i%3 == 0 {
			op = OpWrite
		}
		reqs[i] = Request{Op: op, LBA: int64(i * 5), Pages: i%4 + 1}
	}
	return reqs
}

func TestSliceSource(t *testing.T) {
	reqs := reqN(7)
	src := NewSliceSource(reqs)
	if src.Len() != 7 {
		t.Fatalf("Len = %d", src.Len())
	}
	if got := drain(t, src, 2); len(got) != 7 {
		t.Fatalf("drained %d", len(got))
	}
	src.Reset()
	if got := drain(t, src, 100); len(got) != 7 || got[3] != reqs[3] {
		t.Fatalf("after Reset drained %+v", got)
	}
}

func TestStreamSource(t *testing.T) {
	var sb strings.Builder
	reqs := reqN(9)
	w := NewWriter(&sb)
	for _, r := range reqs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	src := NewStreamSource(NewReader(strings.NewReader(sb.String())))
	got := drain(t, src, 4)
	if len(got) != 9 || got[8] != reqs[8] {
		t.Fatalf("drained %+v", got)
	}

	// A parse error ends the stream and surfaces through Err.
	bad := NewStreamSource(NewReader(strings.NewReader("R 1 1\nX 2 1\n")))
	buf := make([]Request, 8)
	if n := bad.Next(buf); n != 1 {
		t.Fatalf("Next = %d before the bad line", n)
	}
	if bad.Next(buf) != 0 || bad.Err() == nil {
		t.Fatal("bad line did not surface as Err")
	}
}

func TestCountingSource(t *testing.T) {
	stats := NewStats()
	src := NewCountingSource(NewSliceSource(reqN(6)), stats)
	drain(t, src, 4)
	if stats.Requests != 6 {
		t.Fatalf("counted %d requests", stats.Requests)
	}
}

func TestReadIntoNoAllocs(t *testing.T) {
	var sb strings.Builder
	w := NewWriter(&sb)
	for _, r := range reqN(64) {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	rd := NewReader(strings.NewReader(text))
	var req Request
	// Warm once (the scanner's buffer is pre-sized by NewReader).
	if err := rd.ReadInto(&req); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := rd.ReadInto(&req); err != nil {
			rd = NewReader(strings.NewReader(text))
		}
	})
	if allocs > 1 { // the occasional reader restart above may allocate
		t.Fatalf("ReadInto allocates %.1f per call", allocs)
	}
}

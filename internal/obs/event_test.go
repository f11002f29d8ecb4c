package obs

import (
	"slices"
	"testing"
)

// ringSize is the ring a tracer of capacity c holds after n events:
// none before the first, then traceStart doubled until it holds n,
// never more than c.
func ringSize(c, n int) int {
	if n == 0 {
		return 0
	}
	size := traceStart
	for size < n {
		size *= 2
	}
	return min(size, c)
}

// TestTracerGrows: a tracer allocates its ring as events arrive, by
// doubling, and never past its capacity; a ring that is full drops
// its oldest event and keeps numbering them.
func TestTracerGrows(t *testing.T) {
	for _, c := range []int{1, 3, 64, 65, 4096} {
		tr := NewTracer(c)
		if cap(tr.buf) != 0 {
			t.Fatalf("capacity %d: a new tracer holds a %d-event ring", c, cap(tr.buf))
		}
		for n := 1; n <= c+5; n++ {
			tr.record(Event{Block: n - 1})
			if got, want := cap(tr.buf), ringSize(c, n); got != want {
				t.Fatalf("capacity %d, %d events: ring of %d, want %d", c, n, got, want)
			}
		}
		evs := tr.Events()
		if len(evs) != c || tr.Dropped() != 5 {
			t.Fatalf("capacity %d: %d events kept, %d dropped; want %d and 5", c, len(evs), tr.Dropped(), c)
		}
		for i, e := range evs {
			if e.Block != i+5 || e.Seq != uint64(i+5) {
				t.Fatalf("capacity %d: event %d is %+v, want block and seq %d", c, i, e, i+5)
			}
		}
	}
	// Fewer events than the capacity hold less than it: 100 events of
	// the default 4096 hold a 128-event ring.
	tr := NewTracer(0)
	for range 100 {
		tr.record(Event{})
	}
	if cap(tr.buf) != 128 {
		t.Fatalf("100 events hold a %d-event ring, want 128", cap(tr.buf))
	}
}

// FuzzTracer: whatever the capacity and however many events arrive, a
// tracer keeps exactly the newest capacity events of an unbounded
// model, in arrival order with their sequence numbers, counts the rest
// as dropped, and never holds a ring over its capacity.
func FuzzTracer(f *testing.F) {
	f.Add(uint16(3), []byte{5, 0, 7})
	f.Add(uint16(64), []byte{100, 1})
	f.Add(uint16(65), []byte{64, 0, 1, 0, 200})
	f.Add(uint16(0), []byte{255, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, capacity uint16, data []byte) {
		c := int(capacity % 5000)
		tr := NewTracer(c)
		if c == 0 {
			c = DefaultTraceCapacity
		}
		var model []Event
		// Each byte records that many events, then checks the tracer
		// against the model.
		for _, n := range data {
			for range n {
				e := Event{Block: len(model), N: int64(n)}
				tr.record(e)
				e.Seq = uint64(len(model))
				model = append(model, e)
			}
			want := model[max(0, len(model)-c):]
			if got := tr.Events(); !slices.Equal(got, want) {
				t.Fatalf("after %d events: tracer holds %d events, model %d", len(model), len(got), len(want))
			}
			if got := tr.Dropped(); got != int64(len(model)-len(want)) {
				t.Fatalf("after %d events: %d dropped, want %d", len(model), got, len(model)-len(want))
			}
			if cap(tr.buf) > c {
				t.Fatalf("ring of %d events over the %d capacity", cap(tr.buf), c)
			}
		}
	})
}

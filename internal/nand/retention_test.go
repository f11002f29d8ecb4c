package nand

import (
	"reflect"
	"testing"

	"flashdc/internal/sim"
	"flashdc/internal/wear"
)

// TestRetentionDwellStamping: a page's retention error count grows
// with the simulated time since its last program, and reprogramming
// (or erasing) restarts the dwell at zero.
func TestRetentionDwellStamping(t *testing.T) {
	d := New(Config{
		Blocks:      2,
		InitialMode: wear.SLC,
		Seed:        1,
		Retention:   wear.RetentionParams{Accel: 1e9},
	})
	var clk sim.Clock
	d.AttachClock(&clk)
	a := PageAddr(0, 0, 0)
	if _, err := d.Program(a, 1); err != nil {
		t.Fatal(err)
	}
	if got := d.BitErrors(a); got != 0 {
		t.Fatalf("just-programmed page shows %d bits", got)
	}
	clk.Advance(10 * sim.Second)
	after10 := d.BitErrors(a)
	if after10 <= 0 {
		t.Fatalf("10s dwell at Accel 1e9 shows %d bits, want > 0", after10)
	}
	clk.Advance(100 * sim.Second)
	after110 := d.BitErrors(a)
	if after110 <= after10 {
		t.Fatalf("dwell grew but bits went %d -> %d", after10, after110)
	}
	// The prediction equals what a read observes (determinism: the
	// scrubber's BitErrors and the read path agree).
	res, err := d.Read(a)
	if err != nil {
		t.Fatal(err)
	}
	if res.BitErrors != after110 {
		t.Fatalf("read saw %d bits, BitErrors predicted %d", res.BitErrors, after110)
	}
	// Erase + reprogram restarts the dwell.
	if _, err := d.Erase(0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Program(a, 2); err != nil {
		t.Fatal(err)
	}
	if got := d.BitErrors(a); got != 0 {
		t.Fatalf("reprogrammed page still shows %d retention bits", got)
	}
	// A clockless device dwells at the epoch: no retention errors ever.
	d2 := New(Config{Blocks: 1, InitialMode: wear.SLC, Seed: 1,
		Retention: wear.RetentionParams{Accel: 1e9}})
	if _, err := d2.Program(PageAddr(0, 0, 0), 1); err != nil {
		t.Fatal(err)
	}
	if got := d2.BitErrors(PageAddr(0, 0, 0)); got != 0 {
		t.Fatalf("clockless device shows %d retention bits", got)
	}
}

// TestDisturbAccumulatesAndErasesReset: sibling reads add flips to a
// block's pages; the read never counts against the page being read
// before its own sensing; erase clears the counter.
func TestDisturbAccumulatesAndErasesReset(t *testing.T) {
	d := New(Config{
		Blocks:      2,
		InitialMode: wear.SLC,
		Seed:        1,
		Disturb:     wear.DisturbParams{ReadsPerBit: 10},
	})
	victim := PageAddr(0, 0, 0)
	aggressor := PageAddr(0, 1, 0)
	for _, a := range []Addr{victim, aggressor} {
		if _, err := d.Program(a, 1); err != nil {
			t.Fatal(err)
		}
	}
	// 20 reads of the aggressor at 10 reads/bit -> 2 flips on the
	// sibling victim.
	for i := 0; i < 20; i++ {
		if _, err := d.Read(aggressor); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.BlockReads(0); got != 20 {
		t.Fatalf("block served %d reads, want 20", got)
	}
	if got := d.BitErrors(victim); got != 2 {
		t.Fatalf("victim shows %d disturb bits after 20 sibling reads, want 2", got)
	}
	// Another block is untouched.
	other := PageAddr(1, 0, 0)
	if _, err := d.Program(other, 1); err != nil {
		t.Fatal(err)
	}
	if got := d.BitErrors(other); got != 0 {
		t.Fatalf("unrelated block shows %d disturb bits", got)
	}
	// Erase resets the counter and the errors.
	if _, err := d.Erase(0); err != nil {
		t.Fatal(err)
	}
	if got := d.BlockReads(0); got != 0 {
		t.Fatalf("erased block still reports %d reads", got)
	}
	if _, err := d.Program(victim, 1); err != nil {
		t.Fatal(err)
	}
	if got := d.BitErrors(victim); got != 0 {
		t.Fatalf("page in erased block shows %d disturb bits", got)
	}
}

// TestDeviceCheckpointRoundTrip: a restored device is indistinguishable
// from the one checkpointed — same error predictions, counters, stats —
// and a divergent continuation is impossible because the wear model is
// re-derived from the identical Config.
func TestDeviceCheckpointRoundTrip(t *testing.T) {
	cfg := Config{
		Blocks:      4,
		InitialMode: wear.MLC,
		Seed:        7,
		Retention:   wear.RetentionParams{Accel: 1e9},
		Disturb:     wear.DisturbParams{ReadsPerBit: 10},
	}
	d := New(cfg)
	var clk sim.Clock
	d.AttachClock(&clk)
	for s := 0; s < 8; s++ {
		if _, err := d.Program(PageAddr(1, s, 0), uint64(s)); err != nil {
			t.Fatal(err)
		}
		clk.Advance(sim.Second)
	}
	for i := 0; i < 25; i++ {
		if _, err := d.Read(PageAddr(1, 0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Erase(2); err != nil {
		t.Fatal(err)
	}

	ck := d.Checkpoint()
	r := New(cfg)
	var clk2 sim.Clock
	r.AttachClock(&clk2)
	clk2.AdvanceTo(clk.Now())
	if err := r.Restore(ck); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Stats(), d.Stats()) {
		t.Fatalf("stats diverge: restored %+v, original %+v", r.Stats(), d.Stats())
	}
	for b := 0; b < cfg.Blocks; b++ {
		if r.EraseCount(b) != d.EraseCount(b) || r.BlockReads(b) != d.BlockReads(b) {
			t.Fatalf("block %d counters diverge", b)
		}
	}
	for s := 0; s < 8; s++ {
		for sub := 0; sub < 2; sub++ {
			a := PageAddr(1, s, sub)
			if r.BitErrors(a) != d.BitErrors(a) {
				t.Fatalf("%v: restored predicts %d bits, original %d", a, r.BitErrors(a), d.BitErrors(a))
			}
			if r.Programmed(a) != d.Programmed(a) {
				t.Fatalf("%v: programmed state diverges", a)
			}
		}
	}
	// Identical continuation: the same read sequence returns identical
	// results on both devices.
	for i := 0; i < 5; i++ {
		want, err1 := d.Read(PageAddr(1, 1, 0))
		got, err2 := r.Read(PageAddr(1, 1, 0))
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if want != got {
			t.Fatalf("continuation read %d diverges: %+v vs %+v", i, want, got)
		}
	}

	// Geometry mismatch is refused.
	if err := New(Config{Blocks: 3, InitialMode: wear.MLC, Seed: 7}).Restore(ck); err == nil {
		t.Fatal("restore into a 3-block device succeeded")
	}
}

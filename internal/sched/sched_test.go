package sched

import (
	"reflect"
	"testing"

	"flashdc/internal/sim"
)

const (
	us = sim.Microsecond
	ms = sim.Millisecond
)

func newClocked(t *testing.T, cfg Config) (*Scheduler, *sim.Clock) {
	t.Helper()
	s := New(cfg)
	var clock sim.Clock
	s.AttachClock(&clock)
	return s, &clock
}

// TestSerialGeometryMatchesSingleTimeline is the byte-identity
// invariant behind the default configuration: at 1 channel × 1 bank
// every command — foreground or background, any op — must produce
// exactly the waits of the historical single busy-until timeline.
func TestSerialGeometryMatchesSingleTimeline(t *testing.T) {
	s, clock := newClocked(t, Config{})

	// Reference model: one busy-until instant.
	var busy sim.Time
	ref := func(now sim.Time, d sim.Duration) sim.Duration {
		start := now
		if busy.After(start) {
			start = busy
		}
		busy = start.Add(d)
		return start.Sub(now)
	}

	// A deterministic op mix over scattered blocks: the block must not
	// matter at the serial geometry.
	rng := uint64(42)
	next := func(n uint64) uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return (rng >> 33) % n
	}
	for i := 0; i < 2000; i++ {
		block := int(next(4096))
		op := Op(next(3))
		d := sim.Duration(next(900)+100) * us
		fg := next(2) == 0
		if fg {
			want := ref(clock.Now(), d)
			if got := s.Foreground(block, op, d); got != want {
				t.Fatalf("op %d: Foreground wait %v, reference %v", i, got, want)
			}
		} else {
			ref(clock.Now(), d)
			s.Background(block, op, d)
		}
		if got := s.Horizon(); got != busy {
			t.Fatalf("op %d: Horizon %v, reference busy-until %v", i, got, busy)
		}
		clock.Advance(sim.Duration(next(300)) * us)
	}
}

// TestChannelStriping: blocks stripe block mod C, so commands on
// neighbouring blocks land on distinct channels and proceed in
// parallel, while blocks C apart share a channel and serialise.
func TestChannelStriping(t *testing.T) {
	s, _ := newClocked(t, Config{Channels: 4})

	if w := s.Foreground(0, OpRead, 100*us); w != 0 {
		t.Fatalf("first read waited %v", w)
	}
	// Different channel (1 mod 4): no wait.
	if w := s.Foreground(1, OpRead, 100*us); w != 0 {
		t.Fatalf("read on a free channel waited %v", w)
	}
	// Same channel (4 mod 4 == 0): must wait the full 100µs.
	if w := s.Foreground(4, OpRead, 100*us); w != 100*us {
		t.Fatalf("read on a busy channel waited %v, want 100µs", w)
	}
	st := s.Stats()
	if st.ChanWaits != 1 || st.ChanWaitTime != 100*us {
		t.Fatalf("channel wait stats %+v", st)
	}
	if st.BankConflicts != 0 {
		t.Fatalf("unexpected bank conflicts: %+v", st)
	}
}

// TestBankInterleaving: with several banks per channel, commands to
// distinct banks still serialise on the shared channel port, and the
// wait is attributed to the channel, not the bank.
func TestBankInterleaving(t *testing.T) {
	s, _ := newClocked(t, Config{Channels: 1, Banks: 4})

	s.Foreground(0, OpRead, 100*us) // bank 0
	// Bank 1 is free but the single channel is busy.
	if w := s.Foreground(1, OpRead, 100*us); w != 100*us {
		t.Fatalf("waited %v, want 100µs (channel-bound)", w)
	}
	st := s.Stats()
	if st.ChanWaits != 1 || st.BankConflicts != 0 {
		t.Fatalf("wait misattributed: %+v", st)
	}
	// Bank 0 again: the bank frees with the channel here, so the wait
	// is bank-bound only when the bank outlives the channel (erases).
	if w := s.Foreground(0, OpRead, 100*us); w != 200*us {
		t.Fatalf("same-bank read waited %v, want 200µs", w)
	}
}

// TestEraseOccupiesBankOnly: an erase blocks its own bank but leaves
// the channel free, so reads to sibling banks proceed during the erase
// while reads to the erasing bank stall with a bank conflict.
func TestEraseOccupiesBankOnly(t *testing.T) {
	s, _ := newClocked(t, Config{Channels: 1, Banks: 2})

	s.Background(0, OpErase, 2*ms) // bank 0 busy 2ms, channel untouched
	if w := s.Foreground(1, OpRead, 100*us); w != 0 {
		t.Fatalf("read on sibling bank waited %v during erase", w)
	}
	if w := s.Foreground(0, OpRead, 100*us); w != 2*ms {
		t.Fatalf("read on erasing bank waited %v, want 2ms", w)
	}
	st := s.Stats()
	if st.BankConflicts != 1 || st.BankWaitTime != 2*ms {
		t.Fatalf("bank conflict stats %+v", st)
	}
	if st.EraseCmds != 1 || st.ReadCmds != 2 {
		t.Fatalf("command counts %+v", st)
	}
}

// TestInertWithoutClock: no clock, no contention — the scheduler is
// free (zero waits, zero state) exactly like the historical cache
// without AttachClock.
func TestInertWithoutClock(t *testing.T) {
	s := New(Config{Channels: 8, Banks: 8, WriteBufPages: 16})
	if w := s.Foreground(3, OpRead, ms); w != 0 {
		t.Fatalf("clockless Foreground waited %v", w)
	}
	s.Background(3, OpErase, 2*ms)
	if s.BufferActive() {
		t.Fatal("write buffer active without a clock")
	}
	if s.Horizon() != 0 || s.Stats() != (Stats{}) {
		t.Fatalf("clockless scheduler kept state: horizon %v stats %+v", s.Horizon(), s.Stats())
	}
}

// TestBufferCoalesce: a rewrite of a pending LBA inside the coalesce
// window supersedes the earlier flush — one program reaches the
// timelines, and the superseded one is never charged.
func TestBufferCoalesce(t *testing.T) {
	s, clock := newClocked(t, Config{WriteBufPages: 8})

	var coalesced []int64
	s.SetHooks(nil, nil, func(lba int64, block int) { coalesced = append(coalesced, lba) })

	if w := s.BufferWrite(7, 0, 200*us); w != 0 {
		t.Fatalf("admission into an empty buffer waited %v", w)
	}
	if w := s.BufferWrite(7, 0, 200*us); w != 0 {
		t.Fatalf("coalescing rewrite waited %v", w)
	}
	if got := s.PendingWrites(); got != 1 {
		t.Fatalf("PendingWrites = %d after coalesce, want 1", got)
	}
	// Step past the deadline: the surviving entry flushes, the
	// superseded one does not.
	clock.Advance(DefaultCoalesceDelay + us)
	s.Foreground(1, OpRead, us) // any command drains due entries first
	st := s.Stats()
	if st.CoalescedWrites != 1 || st.Flushes != 1 || st.ProgramCmds != 1 {
		t.Fatalf("coalesce stats %+v", st)
	}
	if st.BufferedWrites != 2 {
		t.Fatalf("BufferedWrites = %d, want 2", st.BufferedWrites)
	}
	if !reflect.DeepEqual(coalesced, []int64{7}) {
		t.Fatalf("coalesce hook saw %v", coalesced)
	}
	if s.PendingWrites() != 0 {
		t.Fatalf("%d writes still pending after their deadline", s.PendingWrites())
	}
}

// TestBufferDeadlineOccupancy: a deferred flush occupies the bank from
// its deadline, so a read arriving after the deadline pays the
// remaining program time — the delayed-writeback cost model.
func TestBufferDeadlineOccupancy(t *testing.T) {
	s, clock := newClocked(t, Config{WriteBufPages: 8})

	s.BufferWrite(1, 0, 200*us) // flush at t=500µs, bank busy 500–700µs
	if w := s.Foreground(0, OpRead, 100*us); w != 0 {
		t.Fatalf("read before the flush deadline waited %v", w)
	}
	clock.AdvanceTo(600 * sim.Time(us))
	if w := s.Foreground(0, OpRead, 100*us); w != 100*us {
		t.Fatalf("read during the deferred flush waited %v, want 100µs", w)
	}
}

// TestBufferBackpressure: a full buffer force-flushes its oldest entry
// and the admitting write waits for the freed slot.
func TestBufferBackpressure(t *testing.T) {
	s, _ := newClocked(t, Config{WriteBufPages: 2})

	s.BufferWrite(1, 0, 200*us)
	s.BufferWrite(2, 0, 200*us)
	// Third write: LBA 1's entry is evicted early; its program runs
	// 0–200µs, so the host waits 200µs for the slot.
	if w := s.BufferWrite(3, 0, 200*us); w != 200*us {
		t.Fatalf("admission into a full buffer waited %v, want 200µs", w)
	}
	st := s.Stats()
	if st.ForcedFlushes != 1 || st.Flushes != 1 {
		t.Fatalf("backpressure stats %+v", st)
	}
	if s.PendingWrites() != 2 {
		t.Fatalf("PendingWrites = %d, want 2", s.PendingWrites())
	}
}

// TestBufferDrain: Drain issues everything pending immediately, so the
// horizon covers all deferred work (end-of-run flush).
func TestBufferDrain(t *testing.T) {
	s, _ := newClocked(t, Config{WriteBufPages: 8})

	s.BufferWrite(1, 0, 200*us)
	s.BufferWrite(2, 0, 300*us)
	s.Drain()
	if s.PendingWrites() != 0 {
		t.Fatalf("%d writes pending after Drain", s.PendingWrites())
	}
	if st := s.Stats(); st.Flushes != 2 || st.ProgramCmds != 2 {
		t.Fatalf("drain stats %+v", st)
	}
	// Both programs serialised on the single bank from t=0.
	if got := s.Horizon(); got != sim.Time(500*us) {
		t.Fatalf("Horizon after Drain = %v, want 500µs", got)
	}
	s.Drain() // idempotent on an empty buffer
}

// TestHorizonSetBusyReset covers the checkpoint/warm-up surface.
func TestHorizonSetBusyReset(t *testing.T) {
	s, _ := newClocked(t, Config{Channels: 2, Banks: 2})
	s.Foreground(0, OpRead, 300*us)
	s.Foreground(1, OpProgram, 500*us)
	if got := s.Horizon(); got != sim.Time(500*us) {
		t.Fatalf("Horizon = %v, want 500µs", got)
	}
	s.SetBusy(sim.Time(ms))
	if got := s.Horizon(); got != sim.Time(ms) {
		t.Fatalf("Horizon after SetBusy = %v, want 1ms", got)
	}
	s.Reset()
	if s.Horizon() != 0 || s.Stats() != (Stats{}) {
		t.Fatalf("Reset left horizon %v stats %+v", s.Horizon(), s.Stats())
	}
}

// TestStatsMergeCoversEveryField: Merge must add every counter — a new
// Stats field that Merge misses silently under-reports merged shards.
func TestStatsMergeCoversEveryField(t *testing.T) {
	var a, b Stats
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		av.Field(i).SetInt(int64(i + 1))
		bv.Field(i).SetInt(int64(10 * (i + 1)))
	}
	a.Merge(b)
	for i := 0; i < av.NumField(); i++ {
		if got, want := av.Field(i).Int(), int64(11*(i+1)); got != want {
			t.Errorf("field %s merged to %d, want %d", av.Type().Field(i).Name, got, want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	for _, cfg := range []Config{
		{Channels: -1},
		{Banks: -2},
		{WriteBufPages: -1},
	} {
		if cfg.Validate() == nil {
			t.Errorf("Validate accepted %+v", cfg)
		}
	}
	if err := (Config{Channels: 8, Banks: 4, WriteBufPages: 64}).Validate(); err != nil {
		t.Fatal(err)
	}
	if (Config{}).Active() || (Config{Channels: 1, Banks: 1}).Active() {
		t.Fatal("serial geometry reported active")
	}
	if !(Config{Channels: 2}).Active() || !(Config{WriteBufPages: 1}).Active() {
		t.Fatal("non-default geometry reported inactive")
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a negative channel count")
		}
	}()
	New(Config{Channels: -1})
}

// TestOccupancyQueries pins the occupancy surface against hand-built
// timelines. Geometry 2x2: block%2 is the channel, block/2 interleaves
// the banks, so blocks 0 and 4 share channel 0 / bank 0, block 2 is
// channel 0 / bank 1, block 1 is channel 1 / bank 2.
func TestOccupancyQueries(t *testing.T) {
	s, clock := newClocked(t, Config{Channels: 2, Banks: 2})
	s.Background(0, OpErase, 2*ms)     // bank 0 busy to 2ms; erases leave the port free
	s.Foreground(1, OpProgram, 500*us) // channel 1 + bank 2 busy to 500µs
	now := clock.Now()
	if got := s.BankWait(0, now); got != 2*ms {
		t.Fatalf("BankWait(0) = %v, want 2ms", got)
	}
	if got := s.BankWait(4, now); got != 2*ms {
		t.Fatalf("BankWait(4) = %v, want 2ms (shares block 0's bank)", got)
	}
	if got := s.BankWait(2, now); got != 0 {
		t.Fatalf("BankWait(2) = %v, want 0 (other bank)", got)
	}
	if got := s.BankIdleAt(2, now); got != now {
		t.Fatalf("BankIdleAt(2) = %v, want now", got)
	}
	if got := s.ChanBacklog(0, now); got != 0 {
		t.Fatalf("ChanBacklog(0) = %v, want 0 (erase occupies the bank only)", got)
	}
	if got := s.ChanBacklog(1, now); got != 500*us {
		t.Fatalf("ChanBacklog(1) = %v, want 500µs", got)
	}
	if got := s.MaxBacklog(now); got != 500*us {
		t.Fatalf("MaxBacklog = %v, want 500µs", got)
	}
	// Readings shrink as the clock advances and floor at idle.
	clock.Advance(sim.Duration(ms))
	now = clock.Now()
	if got := s.BankWait(0, now); got != ms {
		t.Fatalf("BankWait(0) after 1ms = %v, want 1ms", got)
	}
	if got := s.MaxBacklog(now); got != 0 {
		t.Fatalf("MaxBacklog after 1ms = %v, want 0", got)
	}
	// Queries are pure: none of the above touched the stats.
	if st := s.Stats(); st.BankConflicts != 0 || st.ChanWaits != 0 {
		t.Fatalf("occupancy queries mutated stats: %+v", st)
	}
}

// TestOccupancyQueriesClockless: without a clock every query reports an
// idle device, so feedback policies degrade to occupancy-blind
// behaviour.
func TestOccupancyQueriesClockless(t *testing.T) {
	s := New(Config{Channels: 2, Banks: 2})
	now := sim.Time(ms)
	if got := s.BankIdleAt(3, now); got != now {
		t.Fatalf("clockless BankIdleAt = %v, want now", got)
	}
	if got := s.BankWait(3, now); got != 0 {
		t.Fatalf("clockless BankWait = %v, want 0", got)
	}
	if got := s.ChanBacklog(3, now); got != 0 {
		t.Fatalf("clockless ChanBacklog = %v, want 0", got)
	}
	if got := s.MaxBacklog(now); got != 0 {
		t.Fatalf("clockless MaxBacklog = %v, want 0", got)
	}
	if got := s.BufferFill(); got != 0 {
		t.Fatalf("BufferFill without a buffer = %v, want 0", got)
	}
}

// TestOccupancyQueriesAllocFree: the occupancy surface sits on the
// feedback-policy hot path — every query must be allocation-free.
func TestOccupancyQueriesAllocFree(t *testing.T) {
	s, clock := newClocked(t, Config{Channels: 4, Banks: 2, WriteBufPages: 8})
	s.Foreground(3, OpProgram, 200*us)
	s.BufferWrite(11, 5, 200*us)
	now := clock.Now()
	if avg := testing.AllocsPerRun(100, func() {
		_ = s.BankIdleAt(3, now)
		_ = s.BankWait(5, now)
		_ = s.ChanBacklog(3, now)
		_ = s.MaxBacklog(now)
		_ = s.BufferFill()
	}); avg != 0 {
		t.Fatalf("occupancy queries allocate %v times per call set", avg)
	}
}

// TestBufferFill tracks the admission-throttle feedback signal through
// admissions, coalesces, and drains.
func TestBufferFill(t *testing.T) {
	s, clock := newClocked(t, Config{WriteBufPages: 4})
	if got := s.BufferFill(); got != 0 {
		t.Fatalf("empty BufferFill = %v", got)
	}
	s.BufferWrite(1, 0, 200*us)
	s.BufferWrite(2, 0, 200*us)
	if got := s.BufferFill(); got != 0.5 {
		t.Fatalf("BufferFill = %v, want 0.5", got)
	}
	s.BufferWrite(1, 0, 200*us) // coalesce: live count unchanged
	if got := s.BufferFill(); got != 0.5 {
		t.Fatalf("BufferFill after coalesce = %v, want 0.5", got)
	}
	clock.Advance(DefaultCoalesceDelay + us)
	s.Foreground(1, OpRead, us) // drains due entries
	if got := s.BufferFill(); got != 0 {
		t.Fatalf("BufferFill after drain = %v, want 0", got)
	}
}

// TestBufferAccountingArithmetic: every buffered write leaves the
// buffer exactly once, as a coalesce or as a flush — after a full
// drain, BufferedWrites == CoalescedWrites + Flushes, with
// ForcedFlushes a subset of Flushes.
func TestBufferAccountingArithmetic(t *testing.T) {
	s, clock := newClocked(t, Config{WriteBufPages: 2})
	s.BufferWrite(1, 0, 200*us)
	s.BufferWrite(2, 1, 200*us)
	s.BufferWrite(1, 0, 200*us) // coalesces lba 1
	s.BufferWrite(3, 2, 200*us) // overflows: forces lba 2 out early
	clock.Advance(sim.Duration(ms))
	s.BufferWrite(4, 3, 200*us) // deadline-drains lbas 1 and 3 first
	s.Drain()                   // flushes lba 4
	st := s.Stats()
	if st.BufferedWrites != 5 {
		t.Fatalf("BufferedWrites = %d, want 5", st.BufferedWrites)
	}
	if st.BufferedWrites != st.CoalescedWrites+st.Flushes {
		t.Fatalf("accounting leak: BufferedWrites %d != CoalescedWrites %d + Flushes %d",
			st.BufferedWrites, st.CoalescedWrites, st.Flushes)
	}
	if st.CoalescedWrites != 1 || st.Flushes != 4 || st.ForcedFlushes != 1 {
		t.Fatalf("buffer stats %+v", st)
	}
	if s.PendingWrites() != 0 {
		t.Fatalf("%d writes pending after Drain", s.PendingWrites())
	}
}

// TestForceFlushAtDeadlineNotForced: an entry that is already past its
// deadline when the force-flush path reaches it is a deadline flush
// drainDue owns — it must issue at its deadline (not now) and must not
// count as forced, whichever caller gets there first.
func TestForceFlushAtDeadlineNotForced(t *testing.T) {
	s, clock := newClocked(t, Config{WriteBufPages: 2})
	s.BufferWrite(1, 0, 200*us) // deadline t=500µs
	clock.Advance(600 * us)
	fin := s.forceFlushOldest(clock.Now())
	st := s.Stats()
	if st.ForcedFlushes != 0 {
		t.Fatalf("a due entry counted as forced: %+v", st)
	}
	if st.Flushes != 1 {
		t.Fatalf("Flushes = %d, want 1", st.Flushes)
	}
	// Issued as drainDue would have: bank occupied from the deadline.
	if want := sim.Time(700 * us); fin != want {
		t.Fatalf("due entry finished at %v, want %v (deadline + program)", fin, want)
	}
}

// TestSupersedeAfterForceFlush: once a force-flush has pushed an LBA's
// entry onto the timelines, a rewrite of that LBA is a fresh buffered
// write — it must not coalesce against the already-issued program.
func TestSupersedeAfterForceFlush(t *testing.T) {
	s, _ := newClocked(t, Config{WriteBufPages: 2})
	s.BufferWrite(7, 0, 200*us)
	s.BufferWrite(8, 1, 200*us)
	s.BufferWrite(9, 2, 200*us) // overflow: lba 7 force-flushed
	if st := s.Stats(); st.ForcedFlushes != 1 {
		t.Fatalf("stats after overflow %+v", st)
	}
	s.BufferWrite(7, 0, 200*us) // rewrite of the flushed LBA: overflow again, no coalesce
	st := s.Stats()
	if st.CoalescedWrites != 0 {
		t.Fatalf("rewrite coalesced against an already-flushed entry: %+v", st)
	}
	if st.BufferedWrites != 4 || st.ForcedFlushes != 2 || st.Flushes != 2 {
		t.Fatalf("buffer stats %+v", st)
	}
	if s.PendingWrites() != 2 {
		t.Fatalf("PendingWrites = %d, want 2 (lbas 9 and 7)", s.PendingWrites())
	}
}

package sched

import "flashdc/internal/sim"

// Coalescing write buffer with delayed writeback, after the WriteCache
// of FTL-SIM-style simulators: a host-write program is admitted into
// DRAM instantly (the device state is updated immediately by the cache
// — the buffer owns only the *timing* of the bank program), and its
// channel/bank occupancy is deferred by DefaultCoalesceDelay. A
// rewrite of the same LBA inside that window supersedes the pending
// flush — the superseded program's bank time is never charged, which
// is the write reduction the buffer exists for. A full buffer
// force-flushes its oldest entry and the host write waits for the
// freed slot, modelling buffer backpressure.
//
// Entries are kept in admission order; admission times are
// non-decreasing, so the FIFO is also deadline order and draining is
// deterministic: due entries are issued to the timelines before any
// newly arriving command is scheduled.

// wbEntry is one pending deferred program.
type wbEntry struct {
	lba      int64
	block    int
	lat      sim.Duration
	deadline sim.Time
	dead     bool
}

// writeBuffer is the pending-flush queue: a slice-backed FIFO (pop at
// head, append at tail) plus an LBA index for coalescing. The slice is
// recycled whenever it empties; the index holds positions into the
// current slice, which never shift while any entry is live.
type writeBuffer struct {
	entries []wbEntry
	head    int
	live    int
	byLBA   map[int64]int
}

func (w *writeBuffer) reset() {
	w.entries = w.entries[:0]
	w.head = 0
	w.live = 0
	for k := range w.byLBA {
		delete(w.byLBA, k)
	}
}

// BufferActive reports whether host-write programs should go through
// the write buffer (configured and armed with a clock).
func (s *Scheduler) BufferActive() bool {
	return s.clock != nil && s.cfg.WriteBufPages > 0
}

// BufferWrite admits a host-write program on block (of duration d, the
// program latency the device already accounted) into the write buffer
// and returns the host-visible admission wait: zero while the buffer
// has room, the time until the oldest entry's forced flush frees a
// slot when it is full. A pending flush for the same LBA is superseded.
// Callers must check BufferActive first.
func (s *Scheduler) BufferWrite(lba int64, block int, d sim.Duration) sim.Duration {
	now := s.clock.Now()
	s.drainDue(now)
	w := &s.wb
	if w.byLBA == nil {
		w.byLBA = make(map[int64]int, s.cfg.WriteBufPages)
	}
	if i, ok := w.byLBA[lba]; ok && !w.entries[i].dead {
		w.entries[i].dead = true
		w.live--
		s.stats.CoalescedWrites++
		if s.onCoalesce != nil {
			s.onCoalesce(lba, w.entries[i].block)
		}
	}
	var wait sim.Duration
	for w.live >= s.cfg.WriteBufPages {
		fin := s.forceFlushOldest(now)
		if d := fin.Sub(now); d > wait {
			wait = d
		}
	}
	if w.head == len(w.entries) && w.live == 0 {
		w.entries = w.entries[:0]
		w.head = 0
	}
	w.byLBA[lba] = len(w.entries)
	w.entries = append(w.entries, wbEntry{
		lba:      lba,
		block:    block,
		lat:      d,
		deadline: now.Add(DefaultCoalesceDelay),
	})
	w.live++
	s.stats.BufferedWrites++
	return wait
}

// issueFlush schedules one pending entry's program onto the timelines
// (never before earliest) and retires it from the index. Returns the
// finish time.
func (s *Scheduler) issueFlush(e *wbEntry, earliest sim.Time) sim.Time {
	start, _ := s.schedule(e.block, OpProgram, e.lat, earliest)
	s.stats.Flushes++
	w := &s.wb
	if i, ok := w.byLBA[e.lba]; ok && &w.entries[i] == e {
		delete(w.byLBA, e.lba)
	}
	w.live--
	return start.Add(e.lat)
}

// drainDue issues every pending flush whose deadline has passed,
// oldest first, before now's command is scheduled — deferred programs
// keep their place in the FCFS queue discipline.
func (s *Scheduler) drainDue(now sim.Time) {
	w := &s.wb
	for w.head < len(w.entries) {
		e := &w.entries[w.head]
		if e.dead {
			w.head++
			continue
		}
		if e.deadline.After(now) {
			return
		}
		s.issueFlush(e, e.deadline)
		w.head++
	}
	if w.live == 0 && w.head == len(w.entries) {
		w.entries = w.entries[:0]
		w.head = 0
	}
}

// forceFlushOldest evicts the oldest live entry (buffer overflow) and
// returns its finish time. ForcedFlushes counts coalescing
// opportunities cut short — entries evicted strictly before their
// deadline. An entry that is already due is a deadline flush drainDue
// owns, not a miss: it is issued exactly as drainDue would issue it
// (earliest = its deadline) and counts only as a plain flush, so the
// forced counter never double-attributes a drainDue-at-the-deadline
// flush regardless of which caller reaches the entry first.
func (s *Scheduler) forceFlushOldest(now sim.Time) sim.Time {
	w := &s.wb
	for w.head < len(w.entries) {
		e := &w.entries[w.head]
		if e.dead {
			w.head++
			continue
		}
		earliest := now
		if e.deadline.After(now) {
			s.stats.ForcedFlushes++
		} else {
			earliest = e.deadline
		}
		fin := s.issueFlush(e, earliest)
		w.head++
		return fin
	}
	return now
}

// Drain force-flushes every pending buffered write at the current
// clock reading (end of run, or an explicit cache flush): their bank
// occupancy lands now rather than at their deadlines. No-op without a
// clock or pending entries.
func (s *Scheduler) Drain() {
	if s.clock == nil || s.wb.live == 0 {
		return
	}
	now := s.clock.Now()
	w := &s.wb
	for w.head < len(w.entries) {
		e := &w.entries[w.head]
		if !e.dead {
			earliest := now
			if e.deadline.Before(earliest) {
				earliest = e.deadline
			}
			s.issueFlush(e, earliest)
		}
		w.head++
	}
	w.entries = w.entries[:0]
	w.head = 0
}

// PendingWrites returns the number of live buffered writes awaiting
// flush.
func (s *Scheduler) PendingWrites() int { return s.wb.live }

// BufferFill returns the write-buffer fill fraction in [0,1] — live
// pending flushes over capacity, the admission-throttle feedback
// signal. Zero when the buffer is disabled.
func (s *Scheduler) BufferFill() float64 {
	if s.cfg.WriteBufPages == 0 {
		return 0
	}
	return float64(s.wb.live) / float64(s.cfg.WriteBufPages)
}

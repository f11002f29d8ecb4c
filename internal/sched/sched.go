// Package sched is the NAND command scheduler sitting between the
// cache (internal/core) and the device model (internal/nand). It owns
// the device's *time*: per-channel ports and bank-interleaved
// program/read/erase service timelines driven by simulated time, plus
// a coalescing write buffer with delayed writeback (wbuf.go). The
// cache owns the device's *state* — which pages are programmed where —
// and consults the scheduler only for when an operation can start, so
// channel/bank parallelism changes latency, contention and wear
// *timing* but never the hit/miss decision sequence.
//
// Geometry and queue discipline. Erase blocks stripe round-robin
// across channels, then across banks within a channel (block b lives
// on channel b mod C, bank (b div C) mod B). Each resource serves
// commands FCFS on a busy-until timeline: a command on block b starts
// at max(now, channel free, bank free) — reads and programs hold both
// the channel (data transfer) and the bank (array access) until they
// finish, while erases hold only the bank (an erase is an internal
// array operation; the channel is free for commands to sibling banks
// after the command byte, which this model rounds to zero). Commands
// are issued in simulation order, so with one channel and one bank the
// timelines collapse to exactly the single busy-until device timeline
// the cache used before this package existed — channels=1 is
// bit-identical to the serial accounting, which is what lets the
// default configuration reproduce historical results byte for byte.
//
// The scheduler is inert until a clock is attached (AttachClock),
// mirroring the cache's contention modelling: without a clock every
// wait is zero and no state is kept.
package sched

import (
	"fmt"

	"flashdc/internal/sim"
)

// Op classifies a device command for channel/bank occupancy rules.
type Op uint8

const (
	// OpRead occupies the block's channel and bank.
	OpRead Op = iota
	// OpProgram occupies the block's channel and bank.
	OpProgram
	// OpErase occupies only the block's bank.
	OpErase
)

// DefaultCoalesceDelay is the write-buffer flush deadline when Config
// leaves CoalesceDelay zero: long enough for bursty rewrites of one
// page to coalesce, short enough that buffered programs land on their
// banks well inside one host-visible latency spike.
const DefaultCoalesceDelay = 500 * sim.Microsecond

// Config sizes the scheduler. The zero value (normalised to 1 channel,
// 1 bank, no write buffer) reproduces the serial device timeline
// bit-identically.
type Config struct {
	// Channels is the number of independent channel ports blocks
	// stripe across; 0 means 1.
	Channels int
	// Banks is the number of banks per channel; 0 means 1.
	Banks int
	// WriteBufPages enables the coalescing write buffer: host-write
	// programs are admitted instantly and their bank occupancy is
	// deferred by CoalesceDelay, during which a rewrite of the same
	// LBA supersedes the pending flush. 0 disables the buffer.
	WriteBufPages int
	// CoalesceDelay is the deferred-writeback deadline; 0 means
	// DefaultCoalesceDelay.
	CoalesceDelay sim.Duration
}

// Active reports whether the configuration differs from the serial
// default (more than one channel or bank, or a write buffer).
func (c Config) Active() bool {
	return c.Channels > 1 || c.Banks > 1 || c.WriteBufPages > 0
}

// Validate rejects impossible geometries with a caller-facing error.
func (c Config) Validate() error {
	if c.Channels < 0 {
		return fmt.Errorf("sched: negative channel count %d", c.Channels)
	}
	if c.Banks < 0 {
		return fmt.Errorf("sched: negative bank count %d", c.Banks)
	}
	if c.WriteBufPages < 0 {
		return fmt.Errorf("sched: negative write buffer size %d", c.WriteBufPages)
	}
	if c.CoalesceDelay < 0 {
		return fmt.Errorf("sched: negative coalesce delay %v", c.CoalesceDelay)
	}
	return nil
}

// normalized fills defaults.
func (c Config) normalized() Config {
	if c.Channels < 1 {
		c.Channels = 1
	}
	if c.Banks < 1 {
		c.Banks = 1
	}
	if c.CoalesceDelay == 0 {
		c.CoalesceDelay = DefaultCoalesceDelay
	}
	return c
}

// Stats counts scheduler activity. All counters advance in simulated
// time only, so they are bit-reproducible.
type Stats struct {
	// ReadCmds/ProgramCmds/EraseCmds count commands scheduled onto the
	// timelines (foreground, background and write-buffer flushes).
	ReadCmds, ProgramCmds, EraseCmds int64
	// ChanWaits counts commands that started late because their
	// channel port was busy; ChanWaitTime is the waiting summed.
	ChanWaits    int64
	ChanWaitTime sim.Duration
	// BankConflicts counts commands whose channel was free but whose
	// bank was still serving an earlier command (the interleaving
	// conflict erase-heavy workloads show); BankWaitTime sums it.
	BankConflicts int64
	BankWaitTime  sim.Duration
	// BufferedWrites counts host programs admitted to the write
	// buffer; CoalescedWrites the pending flushes a rewrite of the
	// same LBA superseded (their bank occupancy was never charged);
	// Flushes the deferred programs issued to the timelines;
	// ForcedFlushes the subset a full buffer evicted strictly before
	// their deadline — coalescing opportunities cut short. A flush at
	// or past its deadline is drainDue's ordinary deadline flush and
	// is never forced-attributed. Every admitted write retires exactly
	// once, so after a drain BufferedWrites == CoalescedWrites +
	// Flushes.
	BufferedWrites, CoalescedWrites int64
	Flushes, ForcedFlushes          int64
}

// Merge adds other's counters into s (per-shard schedulers folding
// into one report).
func (s *Stats) Merge(other Stats) {
	s.ReadCmds += other.ReadCmds
	s.ProgramCmds += other.ProgramCmds
	s.EraseCmds += other.EraseCmds
	s.ChanWaits += other.ChanWaits
	s.ChanWaitTime += other.ChanWaitTime
	s.BankConflicts += other.BankConflicts
	s.BankWaitTime += other.BankWaitTime
	s.BufferedWrites += other.BufferedWrites
	s.CoalescedWrites += other.CoalescedWrites
	s.Flushes += other.Flushes
	s.ForcedFlushes += other.ForcedFlushes
}

// Scheduler is the command scheduler for one device. Not safe for
// concurrent use — like the cache above it, one shard drives it from
// one goroutine.
type Scheduler struct {
	cfg   Config
	clock *sim.Clock
	// chanFree[c] / bankFree[c*Banks+b] are FCFS busy-until
	// timelines. bankFree is always >= chanFree for a block's pair at
	// the serial geometry, which is what makes 1×1 collapse to the
	// historical single-timeline model.
	chanFree []sim.Time
	bankFree []sim.Time
	stats    Stats
	wb       writeBuffer

	// Event hooks (nil when unobserved), fired for host-visible
	// foreground stalls and superseded buffer flushes only — decision
	// events, not per-command chatter.
	onChanBusy     func(block int, wait sim.Duration)
	onBankConflict func(block int, wait sim.Duration)
	onCoalesce     func(lba int64, block int)
}

// New builds a scheduler. Degenerate geometry panics: sizing is a
// design-time decision validated at the flag boundary (Config.Validate).
func New(cfg Config) *Scheduler {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.normalized()
	return &Scheduler{
		cfg:      cfg,
		chanFree: make([]sim.Time, cfg.Channels),
		bankFree: make([]sim.Time, cfg.Channels*cfg.Banks),
	}
}

// AttachClock arms the scheduler: from here on commands contend for
// channel/bank time. Idempotent.
func (s *Scheduler) AttachClock(clock *sim.Clock) { s.clock = clock }

// Active reports whether the geometry differs from the serial default.
func (s *Scheduler) Active() bool { return s.cfg.Active() }

// Stats returns a copy of the counters.
func (s *Scheduler) Stats() Stats { return s.stats }

// SetHooks wires the decision-event callbacks (any may be nil).
func (s *Scheduler) SetHooks(onChanBusy, onBankConflict func(block int, wait sim.Duration), onCoalesce func(lba int64, block int)) {
	s.onChanBusy = onChanBusy
	s.onBankConflict = onBankConflict
	s.onCoalesce = onCoalesce
}

// resources maps a block to its channel and bank timeline indices.
func (s *Scheduler) resources(block int) (ci, bi int) {
	if block < 0 {
		block = 0
	}
	ci = block % s.cfg.Channels
	bi = ci*s.cfg.Banks + (block/s.cfg.Channels)%s.cfg.Banks
	return ci, bi
}

// Horizon returns the latest busy-until instant across every channel
// and bank — the makespan of all work issued so far (pending buffered
// writes excluded; Drain first to include them).
func (s *Scheduler) Horizon() sim.Time {
	var h sim.Time
	for _, t := range s.bankFree {
		if t.After(h) {
			h = t
		}
	}
	for _, t := range s.chanFree {
		if t.After(h) {
			h = t
		}
	}
	return h
}

// Occupancy surface: cheap queries the policy layer feeds back on
// (contention-aware GC victim selection, admission throttling, scrub
// idle-window scheduling). Every query is a pure function of the
// deterministic timeline/buffer state — no wall clock, no randomness,
// no mutation — so feedback decisions replay byte-identically at any
// worker count or batch split. Without a clock every query reports an
// idle device, which makes feedback policies degrade exactly to their
// occupancy-blind behaviour.

// BankIdleAt returns the simulated instant block's bank comes free:
// max(now, the bank's busy-until). Pending buffered writes are not on
// the timelines until they flush and are excluded (BufferFill exposes
// the buffer's pressure separately).
func (s *Scheduler) BankIdleAt(block int, now sim.Time) sim.Time {
	if s.clock == nil {
		return now
	}
	_, bi := s.resources(block)
	if t := s.bankFree[bi]; t.After(now) {
		return t
	}
	return now
}

// BankWait returns how long a command on block issued now would wait
// for its bank.
func (s *Scheduler) BankWait(block int, now sim.Time) sim.Duration {
	return s.BankIdleAt(block, now).Sub(now)
}

// ChanBacklog returns the committed queue depth of block's channel
// port as a duration: how far its busy-until timeline runs past now.
func (s *Scheduler) ChanBacklog(block int, now sim.Time) sim.Duration {
	if s.clock == nil {
		return 0
	}
	ci, _ := s.resources(block)
	if d := s.chanFree[ci].Sub(now); d > 0 {
		return d
	}
	return 0
}

// MaxBacklog returns the deepest channel-port backlog across the
// device — the foreground queue-depth signal background-GC deferral
// keys on.
func (s *Scheduler) MaxBacklog(now sim.Time) sim.Duration {
	if s.clock == nil {
		return 0
	}
	var deepest sim.Duration
	for _, t := range s.chanFree {
		if d := t.Sub(now); d > deepest {
			deepest = d
		}
	}
	return deepest
}

// SetBusy restores every timeline to t (checkpoint restore of the
// serial geometry, where only the maximum matters).
func (s *Scheduler) SetBusy(t sim.Time) {
	for i := range s.chanFree {
		s.chanFree[i] = t
	}
	for i := range s.bankFree {
		s.bankFree[i] = t
	}
}

// Reset re-anchors every timeline to the epoch, drops pending buffered
// writes and zeroes the counters (warmup-reset alongside a rewound
// clock, like nand.Device.ResetStats).
func (s *Scheduler) Reset() {
	for i := range s.chanFree {
		s.chanFree[i] = 0
	}
	for i := range s.bankFree {
		s.bankFree[i] = 0
	}
	s.stats = Stats{}
	s.wb.reset()
}

// schedule places one command of duration d for block on the
// timelines, never starting before earliest. It returns the start and
// whether the bank (rather than the channel port) was the binding
// constraint when the command was delayed.
func (s *Scheduler) schedule(block int, op Op, d sim.Duration, earliest sim.Time) (start sim.Time, bankBound bool) {
	ci, bi := s.resources(block)
	start = earliest
	if op != OpErase && s.chanFree[ci].After(start) {
		start = s.chanFree[ci]
	}
	if s.bankFree[bi].After(start) {
		bankBound = op == OpErase || s.bankFree[bi].After(s.chanFree[ci])
		start = s.bankFree[bi]
	}
	fin := start.Add(d)
	s.bankFree[bi] = fin
	if op != OpErase {
		s.chanFree[ci] = fin
	}
	if wait := start.Sub(earliest); wait > 0 {
		if bankBound {
			s.stats.BankConflicts++
			s.stats.BankWaitTime += wait
		} else {
			s.stats.ChanWaits++
			s.stats.ChanWaitTime += wait
		}
	}
	switch op {
	case OpRead:
		s.stats.ReadCmds++
	case OpProgram:
		s.stats.ProgramCmds++
	case OpErase:
		s.stats.EraseCmds++
	}
	return start, bankBound
}

// Foreground schedules a host-visible command on block and returns how
// long the host waits for its channel/bank pair to come free (the
// contention delay added to the operation's own latency). Zero without
// a clock.
func (s *Scheduler) Foreground(block int, op Op, d sim.Duration) sim.Duration {
	if s.clock == nil {
		return 0
	}
	now := s.clock.Now()
	s.drainDue(now)
	start, bankBound := s.schedule(block, op, d, now)
	wait := start.Sub(now)
	if wait > 0 {
		if bankBound {
			if s.onBankConflict != nil {
				s.onBankConflict(block, wait)
			}
		} else if s.onChanBusy != nil {
			s.onChanBusy(block, wait)
		}
	}
	return wait
}

// Background occupies block's resources for background work of
// duration d starting now (GC relocation reads/programs, GC erases,
// scrub migrations). No-op without a clock or for non-positive d,
// matching the historical occupyDevice contract.
func (s *Scheduler) Background(block int, op Op, d sim.Duration) {
	if s.clock == nil || d <= 0 {
		return
	}
	now := s.clock.Now()
	s.drainDue(now)
	s.schedule(block, op, d, now)
}

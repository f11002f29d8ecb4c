package engine

import (
	"flashdc/internal/core"
	"flashdc/internal/fault"
	"flashdc/internal/hier"
	"flashdc/internal/nand"
	"flashdc/internal/power"
	"flashdc/internal/sched"
	"flashdc/internal/sim"
	"flashdc/internal/tables"
)

// The merged accessors fold per-shard results in shard-index order,
// so a report for a fixed (seed, shards) pair is identical across
// runs and worker counts; with one shard every accessor returns
// exactly what the underlying hier.System reports.

// Stats returns the merged hierarchy counters.
func (e *Engine) Stats() hier.Stats {
	var st hier.Stats
	for _, sh := range e.shards {
		st.Merge(sh.Stats())
	}
	return st
}

// Latencies returns the merged per-page latency distribution.
func (e *Engine) Latencies() *sim.Histogram {
	var h sim.Histogram
	for _, sh := range e.shards {
		h.Merge(sh.Latencies())
	}
	return &h
}

// HasFlash reports whether any shard runs a live Flash tier.
func (e *Engine) HasFlash() bool {
	for _, sh := range e.shards {
		if sh.Flash() != nil {
			return true
		}
	}
	return false
}

// FlashStats returns the merged Flash cache counters (zero when the
// engine runs the DRAM-only baseline).
func (e *Engine) FlashStats() core.Stats {
	var st core.Stats
	for _, sh := range e.shards {
		if f := sh.Flash(); f != nil {
			st.Merge(f.Stats())
		}
	}
	return st
}

// Global returns the merged Flash global status table.
func (e *Engine) Global() tables.FGST {
	var g tables.FGST
	for _, sh := range e.shards {
		if f := sh.Flash(); f != nil {
			g.Merge(f.Global())
		}
	}
	return g
}

// DeviceStats returns the merged NAND device counters.
func (e *Engine) DeviceStats() nand.Stats {
	var st nand.Stats
	for _, sh := range e.shards {
		if f := sh.Flash(); f != nil {
			st.Merge(f.DeviceStats())
		}
	}
	return st
}

// SchedStats returns the merged NAND command-scheduler counters.
func (e *Engine) SchedStats() sched.Stats {
	var st sched.Stats
	for _, sh := range e.shards {
		st.Merge(sh.SchedStats())
	}
	return st
}

// FaultStats returns the merged fault-injection counters.
func (e *Engine) FaultStats() fault.Stats {
	var st fault.Stats
	for _, sh := range e.shards {
		if f := sh.Flash(); f != nil {
			st.Merge(f.FaultStats())
		}
	}
	return st
}

// ValidPages returns the live cached pages across all shards.
func (e *Engine) ValidPages() int64 {
	var n int64
	for _, sh := range e.shards {
		if f := sh.Flash(); f != nil {
			n += f.ValidPages()
		}
	}
	return n
}

// Dead reports whether any shard's Flash cache has failed entirely.
func (e *Engine) Dead() bool { return e.Err() != nil }

// CheckIntegrity audits every shard's Flash mapping tables against
// its device contents, reporting the first violation.
func (e *Engine) CheckIntegrity() error { return e.firstErr((*hier.System).CheckIntegrity) }

// DiskBusy returns the busiest shard's accumulated drive busy time:
// the shards' drives run concurrently, so the fleet is occupied for
// as long as its slowest member.
func (e *Engine) DiskBusy() sim.Duration {
	var busy sim.Duration
	for _, sh := range e.shards {
		if b := sh.DiskBusy(); b > busy {
			busy = b
		}
	}
	return busy
}

// Power returns the average power breakdown over the interval: the
// component-wise sum of the shards' breakdowns, since the shards'
// DRAM, Flash and disk populations draw concurrently.
func (e *Engine) Power(elapsed sim.Duration) power.Breakdown {
	var b power.Breakdown
	for _, sh := range e.shards {
		b = b.Add(sh.PowerWithAppTraffic(elapsed, 0))
	}
	return b
}

// Command fdcsim is the trace-driven Flash disk cache simulator: it
// replays a disk trace (from a file produced by tracegen, text or
// binary, or generated on the fly from the Table 4 catalog) against
// the full memory hierarchy and reports miss rates, latency, power and
// controller activity.
//
// Usage:
//
//	fdcsim -workload dbt2 -scale 0.0625 -requests 200000
//	fdcsim -trace trace.txt -dram 32M -flash 128M
//	fdcsim -workload SPECWeb99 -unified -no-programmable
//	fdcsim -faults "read=2e-3,program=1e-3,erase=1e-3,grown=0.2,seed=7" -scrub 512
//	fdcsim -workload alpha2 -shards 8 -workers 8
//	fdcsim -channels 4 -banks 4 -wbuf 16
//	fdcsim -metrics-out metrics.jsonl -metrics-interval 50ms -trace-events events.jsonl
//	fdcsim -http :8080   (live Prometheus text at /metrics, pprof at /debug/pprof/)
//
// The -shards flag hash-partitions the LBA space across N independent
// shards (each with 1/N of the DRAM and Flash capacity and its own
// derived seed) replayed concurrently by -workers goroutines; the
// report merges the shards. Every run, including the default -shards
// 1, is driven through the sharded engine: a single-shard engine is
// the monolithic simulation.
//
// Observability (-metrics-out, -trace-events, -http) is timestamped in
// simulated time, so for a fixed (seed, shards) pair the JSONL output
// is byte-identical at any -workers count. -metrics-interval is a span
// of *simulated* time between cumulative snapshots (0 = only the final
// snapshot); -trace-events records management decisions (GC, wear
// rotation, ECC/density reconfiguration, retirement, read retries,
// scrubbing, shard merges) into a bounded ring of -trace-cap events.
//
// The -channels/-banks/-wbuf flags configure the NAND command
// scheduler: block-striped channel/bank parallelism plus a coalescing
// write buffer with delayed writeback. The defaults (1/1/0) model the
// paper's serial device and reproduce its output byte-for-byte; any
// other geometry changes timing and wear only — never hit/miss
// semantics — and adds scheduler counters to the report.
//
// The scheduler's occupancy surface can feed back into the management
// policies: -policy-gc contention-aware steers greedy's GC victim to
// a near-tie on the bank that frees first and defers non-forced
// collection, boundedly, under deep foreground backlog, -policy-admit
// throttle (with -wbuf) sheds cold fills and write-backs while the
// write buffer is nearly full, and -scrub on a parallel geometry
// defers scrub/refresh migrations off busy banks into idle windows.
// All feedback reads deterministic simulated-time state, so output
// stays byte-identical at any -workers count.
//
// The -faults flag attaches a deterministic fault-injection campaign
// (comma-separated key=value list) to the Flash device; the report
// then includes retry/remap/retirement counters and an end-of-run
// integrity audit. Keys: read (transient flip rate), flipmax, program,
// erase, grown (rates: probabilities in [0, 1]), seed, burst-every,
// burst-len, burst-factor, bad (factory-bad block list,
// slash-separated). A value outside its domain is a usage error.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"strings"

	"flashdc/internal/core"
	"flashdc/internal/engine"
	"flashdc/internal/fault"
	"flashdc/internal/hier"
	"flashdc/internal/obs"
	"flashdc/internal/policy"
	"flashdc/internal/sched"
	"flashdc/internal/server"
	"flashdc/internal/sim"
	"flashdc/internal/trace"
	"flashdc/internal/wear"
	"flashdc/internal/workload"
)

// parseSize parses a byte count with an optional K, M or G suffix. A
// count whose bytes do not fit an int64 is an error, never a wrapped
// value.
func parseSize(size string) (int64, error) {
	s := strings.TrimSpace(strings.ToUpper(size))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "G"):
		mult = 1 << 30
		s = s[:len(s)-1]
	case strings.HasSuffix(s, "M"):
		mult = 1 << 20
		s = s[:len(s)-1]
	case strings.HasSuffix(s, "K"):
		mult = 1 << 10
		s = s[:len(s)-1]
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q: %v", s, err)
	}
	if v > math.MaxInt64/mult || v < math.MinInt64/mult {
		return 0, fmt.Errorf("size %s overflows a 64-bit byte count", size)
	}
	return v * mult, nil
}

// finiteNonNeg reports whether x is a finite value >= 0 (NaN fails
// every comparison, so it is rejected too).
func finiteNonNeg(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// parseRate parses a per-operation fault probability, which must lie
// in [0, 1].
func parseRate(v string) (float64, error) {
	r, err := strconv.ParseFloat(v, 64)
	if err == nil && !(r >= 0 && r <= 1) {
		err = fmt.Errorf("%g is not a probability in [0, 1]", r)
	}
	return r, err
}

// parseFaults parses the -faults key=value list into a campaign plan.
// Rates are probabilities in [0, 1]; counts, block numbers and the
// burst factor cannot be negative.
func parseFaults(spec string) (*fault.Plan, error) {
	p := &fault.Plan{}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("bad fault setting %q (want key=value)", kv)
		}
		var err error
		switch k {
		case "read":
			p.ReadFlipRate, err = parseRate(v)
		case "flipmax":
			p.ReadFlipMax, err = strconv.Atoi(v)
			if err == nil && p.ReadFlipMax < 0 {
				err = fmt.Errorf("%d flips is negative", p.ReadFlipMax)
			}
		case "program":
			p.ProgramFailRate, err = parseRate(v)
		case "erase":
			p.EraseFailRate, err = parseRate(v)
		case "grown":
			p.GrownBadRate, err = parseRate(v)
		case "seed":
			p.Seed, err = strconv.ParseUint(v, 10, 64)
		case "burst-every":
			p.BurstEvery, err = strconv.ParseUint(v, 10, 64)
		case "burst-len":
			p.BurstLen, err = strconv.ParseUint(v, 10, 64)
		case "burst-factor":
			p.BurstFactor, err = strconv.ParseFloat(v, 64)
			if err == nil && !finiteNonNeg(p.BurstFactor) {
				err = fmt.Errorf("%g is not a finite factor >= 0", p.BurstFactor)
			}
		case "bad":
			for _, f := range strings.Split(v, "/") {
				b, perr := strconv.Atoi(f)
				if perr == nil && b < 0 {
					perr = fmt.Errorf("block %d is negative", b)
				}
				if perr != nil {
					return nil, fmt.Errorf("bad factory-bad block %q: %v", f, perr)
				}
				p.FactoryBadBlocks = append(p.FactoryBadBlocks, b)
			}
		default:
			return nil, fmt.Errorf("unknown fault key %q", k)
		}
		if err != nil {
			return nil, fmt.Errorf("bad fault value %q: %v", kv, err)
		}
	}
	return p, nil
}

func main() {
	var (
		workloadName = flag.String("workload", "dbt2", "Table 4 workload name (ignored with -trace)")
		traceFile    = flag.String("trace", "", "replay a trace file (text, or tracegen -binary's format via a zero-copy mapping) instead of generating")
		scale        = flag.Float64("scale", 1.0/16, "footprint scale for generated workloads")
		requests     = flag.Int("requests", 200000, "requests to simulate")
		dramSize     = flag.String("dram", "16M", "DRAM primary disk cache size")
		flashSize    = flag.String("flash", "128M", "Flash cache size (0 disables Flash)")
		seed         = flag.Uint64("seed", 1, "random seed")
		unified      = flag.Bool("unified", false, "use the unified (non-split) Flash cache baseline")
		noProg       = flag.Bool("no-programmable", false, "disable the programmable controller (fixed BCH-1)")
		wearAccel    = flag.Float64("wear-accel", 1, "wear acceleration factor")
		faultSpec    = flag.String("faults", "", "fault-injection campaign, e.g. \"read=2e-3,program=1e-3,erase=1e-3,grown=0.2,seed=7\"")
		scrubEvery   = flag.Int("scrub", 0, "background scrub scan interval in host operations (0 disables)")
		shards       = flag.Int("shards", 1, "hash-partition the LBA space across N independent shards")
		workers      = flag.Int("workers", 0, "concurrent shard replay goroutines, at most GOMAXPROCS and the CPU count (0 = one per shard)")
		channels     = flag.Int("channels", 1, "NAND channels (blocks striped block%channels; 1 = the paper's serial device)")
		banks        = flag.Int("banks", 1, "NAND banks per channel (erases occupy only their bank)")
		wbufPages    = flag.Int("wbuf", 0, "coalescing write-buffer capacity in pages (0 disables)")

		policyEvict  = flag.String("policy-evict", "", "flash eviction policy (default "+policy.DefaultName(policy.KindEvict)+"; see -list-policies)")
		policyAdmit  = flag.String("policy-admit", "", "flash admission policy (default "+policy.DefaultName(policy.KindAdmit)+"; see -list-policies)")
		policyGC     = flag.String("policy-gc", "", "GC victim-selection policy (default "+policy.DefaultName(policy.KindGC)+"; see -list-policies)")
		listPolicies = flag.Bool("list-policies", false, "list the registered cache policies and exit")

		retentionAccel = flag.Float64("retention-accel", 0, "retention-loss acceleration factor over the 10-year spec dwell (0 disables)")
		disturbReads   = flag.Float64("disturb-reads", 0, "sibling reads per correctable read-disturb bit error (0 disables)")
		refreshThresh  = flag.Float64("refresh-threshold", 0, "fraction of ECC capability at which the scrubber refreshes a page (0 = 1.0)")
		checkpointOut  = flag.String("checkpoint-out", "", "write a resumable campaign checkpoint to this file at end of run")
		checkpointIn   = flag.String("checkpoint-in", "", "resume a campaign from this checkpoint (-requests adds to it)")

		metricsOut  = flag.String("metrics-out", "", "write cumulative metric snapshots as JSONL to this file")
		metricsIvl  = flag.Duration("metrics-interval", 0, "simulated time between snapshots (0 = final snapshot only)")
		traceEvents = flag.String("trace-events", "", "write decision events as JSONL to this file")
		traceCap    = flag.Int("trace-cap", 0, fmt.Sprintf("per-shard event ring-buffer capacity (0 = %d)", obs.DefaultTraceCapacity))
		httpAddr    = flag.String("http", "", "serve live Prometheus text at /metrics and pprof at /debug/pprof/ on this address")
	)
	flag.Parse()

	if *listPolicies {
		for _, kind := range policy.Kinds() {
			names := policy.Names(kind)
			fmt.Printf("%-6s %s (default %s)\n", kind, strings.Join(names, ", "), policy.DefaultName(kind))
		}
		return
	}

	// Validate the whole flag set up front: every rejection below is a
	// usage error reported before any simulation state is built, so a
	// mistyped multi-hour campaign fails in milliseconds.
	dram, err := parseSize(*dramSize)
	if err != nil {
		usageErr("-dram: %v", err)
	}
	flash, err := parseSize(*flashSize)
	if err != nil {
		usageErr("-flash: %v", err)
	}
	switch {
	case dram < 0:
		usageErr("-dram %s is negative", *dramSize)
	case flash < 0:
		usageErr("-flash %s is negative", *flashSize)
	case *requests < 0:
		usageErr("-requests %d is negative", *requests)
	case *scrubEvery < 0:
		usageErr("-scrub %d: the scrub interval cannot be negative", *scrubEvery)
	case *shards < 1:
		usageErr("-shards %d: need at least one shard", *shards)
	case *workers < 0:
		usageErr("-workers %d is negative", *workers)
	case !finiteNonNeg(*wearAccel):
		usageErr("-wear-accel %g: need a finite factor >= 0", *wearAccel)
	case !finiteNonNeg(*retentionAccel):
		usageErr("-retention-accel %g: need a finite factor >= 0", *retentionAccel)
	case !finiteNonNeg(*disturbReads):
		usageErr("-disturb-reads %g: need a finite read count >= 0", *disturbReads)
	case !(*refreshThresh >= 0 && *refreshThresh <= 1):
		usageErr("-refresh-threshold %g outside (0,1] (0 means 1.0)", *refreshThresh)
	case *channels < 1:
		usageErr("-channels %d: need at least one channel", *channels)
	case *banks < 1:
		usageErr("-banks %d: need at least one bank per channel", *banks)
	case *wbufPages < 0:
		usageErr("-wbuf %d is negative", *wbufPages)
	case *traceCap < 0:
		usageErr("-trace-cap %d is negative", *traceCap)
	case *metricsIvl < 0:
		usageErr("-metrics-interval %v is negative", *metricsIvl)
	case *metricsIvl > 0 && *metricsOut == "" && *httpAddr == "":
		usageErr("-metrics-interval takes snapshots only -metrics-out or -http reads; set one of them")
	case *traceCap > 0 && *traceEvents == "":
		usageErr("-trace-cap sizes the event buffer only -trace-events writes; set it too")
	case *traceFile == "" && !(*scale > 0):
		usageErr("-scale %g: generated workloads need a positive footprint scale", *scale)
	case flash == 0 && (*retentionAccel > 0 || *disturbReads > 0):
		usageErr("-retention-accel/-disturb-reads model Flash reliability; -flash 0 builds no Flash tier")
	case (*checkpointIn != "" || *checkpointOut != "") && *traceFile != "":
		usageErr("-checkpoint-in/-checkpoint-out support generated workloads only, not -trace " +
			"(a trace file's stream position cannot be replayed deterministically)")
	}
	schedCfg := sched.Config{Channels: *channels, Banks: *banks, WriteBufPages: *wbufPages}
	switch {
	case flash == 0 && schedCfg.Active():
		usageErr("-channels/-banks/-wbuf configure the Flash NAND scheduler; -flash 0 builds no Flash tier")
	case (*checkpointIn != "" || *checkpointOut != "") && schedCfg.Active():
		usageErr("-checkpoint-in/-checkpoint-out support the default serial device only " +
			"(in-flight channel/bank/write-buffer state is not checkpointable)")
	}
	var gen workload.Generator
	if *traceFile == "" {
		gen, err = workload.New(*workloadName, *scale, *seed)
		if err != nil {
			usageErr("-workload/-scale: %v", err)
		}
	}
	var faults *fault.Plan
	if *faultSpec != "" {
		faults, err = parseFaults(*faultSpec)
		if err != nil {
			usageErr("-faults: %v", err)
		}
		if !faults.Active() {
			usageErr("-faults %q provides no fault rates; set at least one of read/program/erase/grown/bad", *faultSpec)
		}
	}
	pset := policy.Set{Evict: *policyEvict, Admit: *policyAdmit, GC: *policyGC}
	if err := pset.Validate(); err != nil {
		usageErr("%v", err)
	}
	if flash == 0 && !pset.IsDefault() {
		usageErr("-policy-evict/-policy-admit/-policy-gc select Flash cache policies; -flash 0 builds no Flash tier")
	}
	if pset.Normalized().Admit == policy.AdmitThrottle && *wbufPages == 0 {
		usageErr("-policy-admit throttle reads the write-buffer fill; configure one with -wbuf")
	}

	fc := core.DefaultConfig(flash)
	if *unified {
		fc.ReadFraction = 1
	}
	fc.Programmable = !*noProg
	fc.WearAcceleration = *wearAccel
	fc.ScrubEvery = *scrubEvery
	fc.Retention = wear.RetentionParams{Accel: *retentionAccel}
	fc.Disturb = wear.DisturbParams{ReadsPerBit: *disturbReads}
	fc.RefreshThreshold = *refreshThresh
	fc.Policies = pset
	fc.Sched = schedCfg
	fc.Faults = faults

	obsOpts := obs.Options{
		Metrics:         *metricsOut != "" || *httpAddr != "",
		MetricsInterval: sim.Duration(*metricsIvl),
		Trace:           *traceEvents != "",
		TraceCapacity:   *traceCap,
	}
	if *httpAddr != "" && obsOpts.MetricsInterval == 0 {
		// The live endpoint reads atomically published snapshots, so it
		// would serve nothing until the end of the run without a
		// snapshot cadence.
		obsOpts.MetricsInterval = 100 * sim.Millisecond
	}

	cfg := hier.Config{DRAMBytes: dram, FlashBytes: flash, Seed: *seed}
	if flash > 0 {
		cfg.Flash = fc
	}

	// fingerprint names the configuration for checkpoint compatibility:
	// a checkpoint resumes only under the exact flag set that produced
	// it (minus -requests, which extends the campaign).
	fingerprint := fmt.Sprintf(
		"workload=%s scale=%g dram=%d flash=%d seed=%d unified=%v programmable=%v "+
			"wear-accel=%g faults=%q scrub=%d shards=%d "+
			"retention-accel=%g disturb-reads=%g refresh-threshold=%g",
		*workloadName, *scale, dram, flash, *seed, *unified, !*noProg,
		*wearAccel, *faultSpec, *scrubEvery, *shards,
		*retentionAccel, *disturbReads, *refreshThresh)
	if !pset.IsDefault() {
		// Appended only for non-default selections, so a default run's
		// checkpoint bytes stay pinned. (Checkpoints older than the
		// policy framework do not resume: FDCK v2 refuses them.)
		n := pset.Normalized()
		fingerprint += fmt.Sprintf(" policy-evict=%s policy-admit=%s policy-gc=%s",
			n.Evict, n.Admit, n.GC)
	}

	// Every capacity and shard-count rejection the engine reports is a
	// usage error: too little DRAM or Flash for even one shard.
	eng, err := engine.New(engine.Config{Shards: *shards, Workers: *workers, Hier: cfg, Obs: obsOpts})
	if err != nil {
		usageErr("%v", err)
	}

	// Resume: restore every shard's state and remember how much of the
	// global stream the checkpointed run already simulated.
	prevConsumed := 0
	if *checkpointIn != "" {
		f, err := os.Open(*checkpointIn)
		die(err)
		ck, err := engine.ReadCheckpoint(f)
		die(err)
		die(f.Close())
		if ck.Fingerprint != fingerprint {
			die(fmt.Errorf("checkpoint configuration mismatch:\n  checkpoint: %s\n  this run:   %s",
				ck.Fingerprint, fingerprint))
		}
		if ck.Shards != *shards {
			die(fmt.Errorf("checkpoint has %d shards, -shards says %d", ck.Shards, *shards))
		}
		die(eng.Restore(ck))
		prevConsumed = int(ck.Consumed)
	}
	totalRequests := prevConsumed + *requests

	if *httpAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Handler(eng.Observers))
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.ListenAndServe(*httpAddr, mux); err != nil {
				fmt.Fprintln(os.Stderr, "fdcsim: http:", err)
			}
		}()
		fmt.Printf("serving metrics:   http://%s/metrics (pprof at /debug/pprof/)\n", *httpAddr)
	}

	stats := trace.NewStats()
	var src trace.Source
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		die(err)
		// Registered rather than deferred: die/usageErr and the explicit
		// os.Exit paths below bypass defers, so a deferred close would
		// leak the file and the mapping on every early exit.
		onExit(f.Close)
		// The first bytes name the format: no text trace can start
		// with the binary magic. Peek leaves them in the text stream.
		br := bufio.NewReader(f)
		if magic, _ := br.Peek(len(trace.BinaryMagic)); string(magic) == trace.BinaryMagic {
			m, err := trace.MapFile(*traceFile)
			die(err)
			onExit(m.Close)
			src = trace.NewCountingSource(m, stats)
		} else {
			src = trace.NewCountingSource(trace.NewStreamSource(trace.NewReader(br)), stats)
		}
	} else {
		src = trace.NewCountingSource(workload.AsSource(gen), stats)
		// On resume, drain the prefix the checkpointed run already
		// simulated: the generator is deterministic, so this
		// re-synchronises the stream position exactly and keeps the
		// footprint report cumulative over the whole campaign.
		skip := make([]trace.Request, min(prevConsumed, trace.DefaultBatch))
		for skipped := 0; skipped < prevConsumed; {
			skipped += src.Next(skip[:min(len(skip), prevConsumed-skipped)])
		}
	}
	eng.RunSource(src, *requests)
	// The source's sticky stream error (a torn trace file, a bad binary
	// record) is fatal like any other input error.
	die(trace.SourceErr(src))

	// Checkpoint before Drain: the unbroken run never drains mid-way,
	// so a resumable snapshot must capture the pre-drain state for the
	// continuation to be bit-identical. (Progress notes go to stderr —
	// stdout stays byte-comparable across segmented and unbroken runs.)
	if *checkpointOut != "" {
		ck, err := eng.Checkpoint(fingerprint, int64(totalRequests))
		die(err)
		f, err := os.Create(*checkpointOut)
		die(err)
		die(engine.WriteCheckpoint(f, ck))
		die(f.Close())
		fmt.Fprintf(os.Stderr, "fdcsim: checkpoint after %d requests -> %s\n", totalRequests, *checkpointOut)
	}
	eng.Drain()
	report := eng.Observe()

	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		die(err)
		die(obs.WriteSnapshotsJSONL(f, report.Snapshots))
		die(f.Close())
		fmt.Printf("metrics:           %d snapshots -> %s\n", len(report.Snapshots), *metricsOut)
	}
	if *traceEvents != "" {
		f, err := os.Create(*traceEvents)
		die(err)
		die(obs.WriteEventsJSONL(f, report.Events))
		die(f.Close())
		fmt.Printf("trace events:      %d -> %s (%d dropped)\n",
			len(report.Events), *traceEvents, report.DroppedEvents)
	}

	if eng.Shards() > 1 {
		// A single-shard run stays silent: its report is the monolithic
		// simulation's.
		fmt.Printf("shards:            %d (%d workers)\n", eng.Shards(), eng.Workers())
	}
	st := eng.Stats()
	fmt.Printf("requests:          %d (%d read pages, %d write pages)\n",
		st.Requests, st.ReadPages, st.WritePages)
	fmt.Printf("trace footprint:   %d pages (%.1f MB), %.1f%% writes\n",
		stats.UniquePages(), float64(stats.WorkingSetBytes())/float64(1<<20),
		100*stats.WriteFraction())
	fmt.Printf("PDC hits:          %d (%.2f%% of pages)\n",
		st.PDCHits, pct(st.PDCHits, st.ReadPages+st.WritePages))
	fmt.Printf("flash hits:        %d\n", st.FlashHits)
	fmt.Printf("disk reads:        %d\n", st.DiskReads)
	fmt.Printf("avg latency:       %v\n", st.AvgLatency())
	fmt.Printf("latency profile:   %v\n", eng.Latencies())
	fmt.Printf("request latency:   p99=%v p999=%v\n",
		eng.Latencies().Quantile(0.99), eng.Latencies().Quantile(0.999))
	srv := server.Default()
	fmt.Printf("est. bandwidth:    %.1f MB/s (%.0f req/s)\n",
		srv.Bandwidth(st.AvgLatency())/(1<<20), srv.Throughput(st.AvgLatency()))

	if eng.HasFlash() {
		cs := eng.FlashStats()
		gl := eng.Global()
		if !pset.IsDefault() {
			// Printed only under non-default policies: the default report
			// stays byte-identical to the pre-framework output.
			fmt.Printf("policies:          %s\n", pset)
			fmt.Printf("admission:         %d fills rejected, %d write-arounds\n",
				cs.AdmitRejects, cs.WriteArounds)
		}
		fmt.Printf("flash miss rate:   %.4f\n", cs.MissRate())
		fmt.Printf("flash GC:          %d runs, %d relocations, %v background time\n",
			cs.GCRuns, cs.GCRelocations, cs.GCTime)
		fmt.Printf("flash evictions:   %d (%d pages flushed to disk)\n",
			cs.Evictions, cs.FlushedPages)
		fmt.Printf("wear swaps:        %d, promotions: %d\n", cs.WearSwaps, cs.Promotions)
		fmt.Printf("reconfig events:   %d ECC, %d density\n",
			gl.ECCReconfigs, gl.DensityReconfigs)
		fmt.Printf("retired blocks:    %d (dead=%v)\n", cs.RetiredBlocks, eng.Dead())
		ds := eng.DeviceStats()
		fmt.Printf("device ops:        %d reads, %d programs, %d erases\n",
			ds.Reads, ds.Programs, ds.Erases)
		if schedCfg.Active() {
			// Printed only under a non-default geometry: the default
			// serial-device report stays byte-identical to the pre-scheduler
			// output.
			ss := eng.SchedStats()
			fmt.Printf("nand scheduler:    %d channels x %d banks: %d read, %d program, %d erase cmds\n",
				*channels, *banks, ss.ReadCmds, ss.ProgramCmds, ss.EraseCmds)
			fmt.Printf("sched contention:  %d channel waits (%v), %d bank conflicts (%v)\n",
				ss.ChanWaits, ss.ChanWaitTime, ss.BankConflicts, ss.BankWaitTime)
			if *wbufPages > 0 {
				fmt.Printf("write buffer:      %d pages: %d buffered, %d coalesced, %d flushes (%d forced)\n",
					*wbufPages, ss.BufferedWrites, ss.CoalescedWrites, ss.Flushes, ss.ForcedFlushes)
			}
		}
		if fc.Feedback() {
			// Printed only with a feedback path configured: feedback-off
			// reports stay byte-identical to the pre-feedback output.
			fmt.Printf("sched feedback:    %d GC deferrals, %d throttle engagements, %d scrub deferrals (%d idle windows)\n",
				cs.GCDeferred, cs.AdmitThrottleFlips, cs.ScrubDeferred, cs.ScrubWindows)
		}
		if *faultSpec != "" || *scrubEvery > 0 {
			fs := eng.FaultStats()
			fmt.Printf("faults injected:   %d read flips over %d reads, %d program fails, %d erase fails, %d grown bad\n",
				fs.ReadFlips, fs.ReadInjections, fs.ProgramFails, fs.EraseFails, fs.GrownBad)
			fmt.Printf("fault recovery:    %d retries (%d recovered), %d remaps, %d program fails, %d erase fails\n",
				cs.ReadRetries, cs.RetryRecoveries, cs.Remaps, cs.ProgramFailures, cs.EraseFailures)
			fmt.Printf("scrubber:          %d pages scanned, %d migrated, %v background time\n",
				cs.ScrubScans, cs.ScrubMigrations, cs.ScrubTime)
			if err := eng.CheckIntegrity(); err != nil {
				fmt.Printf("integrity:         FAILED: %v\n", err)
				exit(1)
			}
			fmt.Printf("integrity:         OK (%d cached pages verified)\n", eng.ValidPages())
		}
		if *retentionAccel > 0 || *disturbReads > 0 {
			fmt.Printf("refresh policy:    %d retention scans, %d refresh rewrites, %d disturb resets\n",
				cs.RetentionScans, cs.RefreshRewrites, cs.DisturbResets)
		}
	}
	elapsed := srv.Elapsed(st.Requests, st.AvgLatency())
	if db := eng.DiskBusy(); db > elapsed {
		elapsed = db
	}
	if elapsed > 0 {
		fmt.Printf("power:             %v\n", eng.Power(elapsed))
	}
	if err := eng.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "fdcsim: degraded service:", err)
		exit(1)
	}
	die(runExitFns())
}

func pct(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// exitFns holds cleanup work — closing the trace file and its binary
// mapping — that must run on every exit path. die, usageErr and exit
// bypass defers (os.Exit), which used to leak the binary trace's
// mapping on early exits; registered cleanups run regardless.
var exitFns []func() error

func onExit(fn func() error) { exitFns = append(exitFns, fn) }

// runExitFns runs the registered cleanups newest-first, reporting the
// first failure (which matters on an otherwise clean exit: a close
// error can mean the mapping was torn down mid-replay).
func runExitFns() error {
	var first error
	for i := len(exitFns) - 1; i >= 0; i-- {
		if err := exitFns[i](); err != nil && first == nil {
			first = err
		}
	}
	exitFns = nil
	return first
}

// exit terminates with code after running the registered cleanups.
func exit(code int) {
	runExitFns()
	os.Exit(code)
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "fdcsim:", err)
		exit(1)
	}
}

// usageErr reports a flag-validation failure as a usage error (exit 2,
// the flag package's convention) before any simulation state exists.
func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fdcsim: "+format+"\n", args...)
	fmt.Fprintln(os.Stderr, "run with -h for usage")
	exit(2)
}

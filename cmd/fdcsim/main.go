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
	"errors"
	"flag"
	"fmt"
	"io"
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
	"flashdc/internal/server"
	"flashdc/internal/sim"
	"flashdc/internal/trace"
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
	rc, err := parse(os.Args[1:])
	if err != nil {
		os.Exit(usage(os.Stderr, err))
	}
	os.Exit(run(rc, os.Stdout, os.Stderr))
}

// runConfig is a command line parse accepted: an engine configuration
// that passed engine.Config.Validate, and the stream, files and
// endpoint run uses around it. Nothing in it is built or opened yet.
type runConfig struct {
	listPolicies bool
	engine       engine.Config
	// trace, a file name, replaces the generated workload when set.
	workload, trace string
	scale           float64
	requests        int
	// fingerprint names the configuration for checkpoint compatibility:
	// a checkpoint resumes only under the exact flag set that produced
	// it (minus -requests, which extends the campaign).
	fingerprint                       string
	checkpointIn, checkpointOut       string
	metricsOut, traceEvents, httpAddr string
}

// flagError is a command line the flag package refused, or -h. text is
// what the flag package wrote for it: the error, if any, and the usage.
type flagError struct {
	error
	text string
}

// parse turns the arguments into a runConfig or the usage error that
// refuses them. It makes every check that needs no simulation, ending
// with engine.Config.Validate, and opens, builds and prints nothing.
func parse(args []string) (runConfig, error) {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	var out strings.Builder
	fs.SetOutput(&out)
	// Flags that name a configuration field set it directly.
	rc := runConfig{engine: engine.Config{Hier: hier.Config{Flash: core.DefaultConfig(0)}}}
	ec, fc := &rc.engine, &rc.engine.Hier.Flash
	fs.StringVar(&rc.workload, "workload", "dbt2", "Table 4 workload name (ignored with -trace)")
	fs.StringVar(&rc.trace, "trace", "", "replay a trace file (text, or tracegen -binary's format via a zero-copy mapping) instead of generating")
	fs.Float64Var(&rc.scale, "scale", 1.0/16, "footprint scale for generated workloads")
	fs.IntVar(&rc.requests, "requests", 200000, "requests to simulate")
	dramSize := fs.String("dram", "16M", "DRAM primary disk cache size")
	flashSize := fs.String("flash", "128M", "Flash cache size (0 disables Flash)")
	fs.Uint64Var(&ec.Hier.Seed, "seed", 1, "random seed")
	unified := fs.Bool("unified", false, "use the unified (non-split) Flash cache baseline")
	noProg := fs.Bool("no-programmable", false, "disable the programmable controller (fixed BCH-1)")
	fs.Float64Var(&fc.WearAcceleration, "wear-accel", 1, "wear acceleration factor")
	faultSpec := fs.String("faults", "", "fault-injection campaign, e.g. \"read=2e-3,program=1e-3,erase=1e-3,grown=0.2,seed=7\"")
	fs.IntVar(&fc.ScrubEvery, "scrub", 0, "background scrub scan interval in host operations (0 disables)")
	fs.IntVar(&ec.Shards, "shards", 1, "hash-partition the LBA space across N independent shards")
	fs.IntVar(&ec.Workers, "workers", 0, "concurrent shard replay goroutines, at most GOMAXPROCS and the CPU count (0 = one per shard)")
	fs.IntVar(&fc.Sched.Channels, "channels", 1, "NAND channels (blocks striped block%channels; 1 = the paper's serial device)")
	fs.IntVar(&fc.Sched.Banks, "banks", 1, "NAND banks per channel (erases occupy only their bank)")
	fs.IntVar(&fc.Sched.WriteBufPages, "wbuf", 0, "coalescing write-buffer capacity in pages (0 disables)")

	fs.StringVar(&fc.Policies.Evict, "policy-evict", "", "flash eviction policy (default "+policy.DefaultName(policy.KindEvict)+"; see -list-policies)")
	fs.StringVar(&fc.Policies.Admit, "policy-admit", "", "flash admission policy (default "+policy.DefaultName(policy.KindAdmit)+"; see -list-policies)")
	fs.StringVar(&fc.Policies.GC, "policy-gc", "", "GC victim-selection policy (default "+policy.DefaultName(policy.KindGC)+"; see -list-policies)")
	fs.BoolVar(&rc.listPolicies, "list-policies", false, "list the registered cache policies and exit")

	fs.Float64Var(&fc.Retention.Accel, "retention-accel", 0, "retention-loss acceleration factor over the 10-year spec dwell (0 disables)")
	fs.Float64Var(&fc.Disturb.ReadsPerBit, "disturb-reads", 0, "sibling reads per correctable read-disturb bit error (0 disables)")
	fs.Float64Var(&fc.RefreshThreshold, "refresh-threshold", 0, "fraction of ECC capability at which the scrubber refreshes a page (0 = 1.0)")
	fs.StringVar(&rc.checkpointOut, "checkpoint-out", "", "write a resumable campaign checkpoint to this file at end of run")
	fs.StringVar(&rc.checkpointIn, "checkpoint-in", "", "resume a campaign from this checkpoint (-requests adds to it)")

	fs.StringVar(&rc.metricsOut, "metrics-out", "", "write cumulative metric snapshots as JSONL to this file")
	metricsIvl := fs.Duration("metrics-interval", 0, "simulated time between snapshots (0 = final snapshot only)")
	fs.StringVar(&rc.traceEvents, "trace-events", "", "write decision events as JSONL to this file")
	fs.IntVar(&ec.Obs.TraceCapacity, "trace-cap", 0, fmt.Sprintf("per-shard event ring-buffer capacity (0 = %d)", obs.DefaultTraceCapacity))
	fs.StringVar(&rc.httpAddr, "http", "", "serve live Prometheus text at /metrics and pprof at /debug/pprof/ on this address")
	if err := fs.Parse(args); err != nil {
		return runConfig{}, &flagError{err, out.String()}
	}
	if rc.listPolicies {
		return runConfig{listPolicies: true}, nil
	}
	bad := func(format string, args ...any) (runConfig, error) {
		return runConfig{}, fmt.Errorf(format, args...)
	}

	// engine.Config.Validate, last, checks the DRAM size, shards, workers
	// and, with a Flash tier, policy names and scheduler sizes. The
	// checks here are the ones it cannot make on every path.
	dram, err := parseSize(*dramSize)
	if err != nil {
		return bad("-dram: %v", err)
	}
	flash, err := parseSize(*flashSize)
	if err != nil {
		return bad("-flash: %v", err)
	}
	ckpt, pset := rc.checkpointIn != "" || rc.checkpointOut != "", fc.Policies
	switch {
	case flash < 0:
		return bad("-flash %s is negative", *flashSize)
	case rc.requests < 0:
		return bad("-requests %d is negative", rc.requests)
	case fc.ScrubEvery < 0:
		return bad("-scrub %d: the scrub interval cannot be negative", fc.ScrubEvery)
	case !finiteNonNeg(fc.WearAcceleration):
		return bad("-wear-accel %g: need a finite factor >= 0", fc.WearAcceleration)
	case !finiteNonNeg(fc.Retention.Accel):
		return bad("-retention-accel %g: need a finite factor >= 0", fc.Retention.Accel)
	case !finiteNonNeg(fc.Disturb.ReadsPerBit):
		return bad("-disturb-reads %g: need a finite read count >= 0", fc.Disturb.ReadsPerBit)
	case !(fc.RefreshThreshold >= 0 && fc.RefreshThreshold <= 1):
		return bad("-refresh-threshold %g outside (0,1] (0 means 1.0)", fc.RefreshThreshold)
	case fc.Sched.Channels < 1:
		return bad("-channels %d: need at least one channel", fc.Sched.Channels)
	case fc.Sched.Banks < 1:
		return bad("-banks %d: need at least one bank per channel", fc.Sched.Banks)
	case fc.Sched.WriteBufPages < 0:
		return bad("-wbuf %d is negative", fc.Sched.WriteBufPages)
	case ec.Obs.TraceCapacity < 0:
		return bad("-trace-cap %d is negative", ec.Obs.TraceCapacity)
	case *metricsIvl < 0:
		return bad("-metrics-interval %v is negative", *metricsIvl)
	case *metricsIvl > 0 && rc.metricsOut == "" && rc.httpAddr == "":
		return bad("-metrics-interval takes snapshots only -metrics-out or -http reads; set one of them")
	case ec.Obs.TraceCapacity > 0 && rc.traceEvents == "":
		return bad("-trace-cap sizes the event buffer only -trace-events writes; set it too")
	case rc.trace == "" && !(rc.scale > 0 && rc.scale <= 1):
		return bad("-scale %g: generated workloads need a footprint scale in (0, 1]", rc.scale)
	case flash == 0 && (fc.Retention.Accel > 0 || fc.Disturb.ReadsPerBit > 0):
		return bad("-retention-accel/-disturb-reads model Flash reliability; -flash 0 builds no Flash tier")
	case ckpt && rc.trace != "":
		return bad("-checkpoint-in/-checkpoint-out support generated workloads only, not -trace " +
			"(a trace file's stream position cannot be replayed deterministically)")
	case flash == 0 && fc.Sched.Active():
		return bad("-channels/-banks/-wbuf configure the Flash NAND scheduler; -flash 0 builds no Flash tier")
	case ckpt && fc.Sched.Active():
		return bad("-checkpoint-in/-checkpoint-out support the default serial device only " +
			"(in-flight channel/bank/write-buffer state is not checkpointable)")
	case flash == 0 && !pset.IsDefault():
		return bad("-policy-evict/-policy-admit/-policy-gc select Flash cache policies; -flash 0 builds no Flash tier")
	case pset.Normalized().Admit == policy.AdmitThrottle && fc.Sched.WriteBufPages == 0:
		return bad("-policy-admit throttle reads the write-buffer fill; configure one with -wbuf")
	}
	if _, ok := workload.Lookup(rc.workload); !ok && rc.trace == "" {
		return bad("-workload %q is unknown (have %s)", rc.workload, strings.Join(workload.Names(), ", "))
	}
	if *faultSpec != "" {
		fc.Faults, err = parseFaults(*faultSpec)
		if err != nil {
			return bad("-faults: %v", err)
		}
		if !fc.Faults.Active() {
			return bad("-faults %q provides no fault rates; set at least one of read/program/erase/grown/bad", *faultSpec)
		}
	}

	ec.Hier.DRAMBytes, ec.Hier.FlashBytes, fc.FlashBytes = dram, flash, flash
	if *unified {
		fc.ReadFraction = 1
	}
	fc.Programmable = !*noProg
	ec.Obs.Metrics = rc.metricsOut != "" || rc.httpAddr != ""
	ec.Obs.MetricsInterval = sim.Duration(*metricsIvl)
	ec.Obs.Trace = rc.traceEvents != ""
	if rc.httpAddr != "" && ec.Obs.MetricsInterval == 0 {
		// The live endpoint reads atomically published snapshots, so it
		// would serve nothing until the end of the run without a
		// snapshot cadence.
		ec.Obs.MetricsInterval = 100 * sim.Millisecond
	}

	rc.fingerprint = fmt.Sprintf(
		"workload=%s scale=%g dram=%d flash=%d seed=%d unified=%v programmable=%v "+
			"wear-accel=%g faults=%q scrub=%d shards=%d "+
			"retention-accel=%g disturb-reads=%g refresh-threshold=%g",
		rc.workload, rc.scale, dram, flash, ec.Hier.Seed, *unified, !*noProg,
		fc.WearAcceleration, *faultSpec, fc.ScrubEvery, ec.Shards,
		fc.Retention.Accel, fc.Disturb.ReadsPerBit, fc.RefreshThreshold)
	if !pset.IsDefault() {
		// Appended only for non-default selections, so a default run's
		// checkpoint bytes stay pinned. (Checkpoints older than the
		// policy framework do not resume: FDCK v2 refuses them.)
		n := pset.Normalized()
		rc.fingerprint += fmt.Sprintf(" policy-evict=%s policy-admit=%s policy-gc=%s",
			n.Evict, n.Admit, n.GC)
	}
	// Every capacity and shard-count rejection the engine reports is a
	// usage error: too little DRAM or Flash for even one shard, or more
	// state than engine.MaxResidentBytes.
	if err := ec.Validate(); err != nil {
		return bad("%v", err)
	}
	return rc, nil
}

// usage reports a command line parse refused and returns the exit code:
// 0 for -h, else 2. Only the flag package's own reports print the usage.
func usage(stderr io.Writer, err error) int {
	var fe *flagError
	if errors.As(err, &fe) {
		fmt.Fprint(stderr, fe.text)
		if fe.error == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fmt.Fprintf(stderr, "fdcsim: %v\nrun with -h for usage\n", err)
	return 2
}

// run builds the engine rc describes, replays the stream, writes the
// side files and prints the report. It returns the exit code: 0, or 1 for
// an input or I/O error, a failed integrity audit or a dead Flash tier.
func run(rc runConfig, stdout, stderr io.Writer) int {
	if rc.listPolicies {
		for _, kind := range policy.Kinds() {
			fmt.Fprintf(stdout, "%-6s %s (default %s)\n", kind, strings.Join(policy.Names(kind), ", "), policy.DefaultName(kind))
		}
		return 0
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "fdcsim:", err)
		return 1
	}
	eng, prevConsumed, err := start(rc)
	if err != nil {
		return fail(err)
	}

	if rc.httpAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Handler(eng.Observers))
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.ListenAndServe(rc.httpAddr, mux); err != nil {
				fmt.Fprintln(stderr, "fdcsim: http:", err)
			}
		}()
		fmt.Fprintf(stdout, "serving metrics:   http://%s/metrics (pprof at /debug/pprof/)\n", rc.httpAddr)
	}

	stats := trace.NewStats()
	var src trace.Source
	if rc.trace != "" {
		f, err := os.Open(rc.trace)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		// The first bytes name the format: no text trace can start
		// with the binary magic. Peek leaves them in the text stream.
		br := bufio.NewReader(f)
		if magic, _ := br.Peek(len(trace.BinaryMagic)); string(magic) == trace.BinaryMagic {
			m, err := trace.MapFile(rc.trace)
			if err != nil {
				return fail(err)
			}
			defer m.Close()
			src = trace.NewCountingSource(m, stats)
		} else {
			src = trace.NewCountingSource(trace.NewStreamSource(trace.NewReader(br)), stats)
		}
	} else {
		// parse checked the workload name and scale New would refuse.
		gen := workload.MustNew(rc.workload, rc.scale, rc.engine.Hier.Seed)
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
	eng.RunSource(src, rc.requests)
	// The source's sticky stream error (a torn trace file, a bad binary
	// record) is fatal like any other input error.
	if err := trace.SourceErr(src); err != nil {
		return fail(err)
	}

	// Checkpoint before Drain: the unbroken run never drains mid-way,
	// so a resumable snapshot must capture the pre-drain state for the
	// continuation to be bit-identical. (Progress notes go to stderr —
	// stdout stays byte-comparable across segmented and unbroken runs.)
	if rc.checkpointOut != "" {
		ck, err := eng.Checkpoint(rc.fingerprint, int64(prevConsumed+rc.requests))
		if err == nil {
			err = writeFile(rc.checkpointOut, func(w io.Writer) error { return engine.WriteCheckpoint(w, ck) })
		}
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "fdcsim: checkpoint after %d requests -> %s\n", prevConsumed+rc.requests, rc.checkpointOut)
	}
	eng.Drain()
	report := eng.Observe()

	if rc.metricsOut != "" {
		if err := writeFile(rc.metricsOut, func(w io.Writer) error { return obs.WriteSnapshotsJSONL(w, report.Snapshots) }); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "metrics:           %d snapshots -> %s\n", len(report.Snapshots), rc.metricsOut)
	}
	if rc.traceEvents != "" {
		if err := writeFile(rc.traceEvents, func(w io.Writer) error { return obs.WriteEventsJSONL(w, report.Events) }); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "trace events:      %d -> %s (%d dropped)\n",
			len(report.Events), rc.traceEvents, report.DroppedEvents)
	}

	if eng.Shards() > 1 {
		// A single-shard run stays silent: its report is the monolithic
		// simulation's.
		fmt.Fprintf(stdout, "shards:            %d (%d workers)\n", eng.Shards(), eng.Workers())
	}
	st := eng.Stats()
	fmt.Fprintf(stdout, "requests:          %d (%d read pages, %d write pages)\n",
		st.Requests, st.ReadPages, st.WritePages)
	fmt.Fprintf(stdout, "trace footprint:   %d pages (%.1f MB), %.1f%% writes\n",
		stats.UniquePages(), float64(stats.WorkingSetBytes())/float64(1<<20),
		100*stats.WriteFraction())
	fmt.Fprintf(stdout, "PDC hits:          %d (%.2f%% of pages)\n",
		st.PDCHits, 100*float64(st.PDCHits)/float64(max(1, st.ReadPages+st.WritePages)))
	fmt.Fprintf(stdout, "flash hits:        %d\n", st.FlashHits)
	fmt.Fprintf(stdout, "disk reads:        %d\n", st.DiskReads)
	fmt.Fprintf(stdout, "avg latency:       %v\n", st.AvgLatency())
	fmt.Fprintf(stdout, "latency profile:   %v\n", eng.Latencies())
	fmt.Fprintf(stdout, "request latency:   p99=%v p999=%v\n",
		eng.Latencies().Quantile(0.99), eng.Latencies().Quantile(0.999))
	srv := server.Default()
	fmt.Fprintf(stdout, "est. bandwidth:    %.1f MB/s (%.0f req/s)\n",
		srv.Bandwidth(st.AvgLatency())/(1<<20), srv.Throughput(st.AvgLatency()))

	if eng.HasFlash() {
		fc := &rc.engine.Hier.Flash
		cs := eng.FlashStats()
		gl := eng.Global()
		if !fc.Policies.IsDefault() {
			// Printed only under non-default policies: the default report
			// stays byte-identical to the pre-framework output.
			fmt.Fprintf(stdout, "policies:          %s\n", fc.Policies)
			fmt.Fprintf(stdout, "admission:         %d fills rejected, %d write-arounds\n",
				cs.AdmitRejects, cs.WriteArounds)
		}
		fmt.Fprintf(stdout, "flash miss rate:   %.4f\n", cs.MissRate())
		fmt.Fprintf(stdout, "flash GC:          %d runs, %d relocations, %v background time\n",
			cs.GCRuns, cs.GCRelocations, cs.GCTime)
		fmt.Fprintf(stdout, "flash evictions:   %d (%d pages flushed to disk)\n",
			cs.Evictions, cs.FlushedPages)
		fmt.Fprintf(stdout, "wear swaps:        %d, promotions: %d\n", cs.WearSwaps, cs.Promotions)
		fmt.Fprintf(stdout, "reconfig events:   %d ECC, %d density\n",
			gl.ECCReconfigs, gl.DensityReconfigs)
		fmt.Fprintf(stdout, "retired blocks:    %d (dead=%v)\n", cs.RetiredBlocks, eng.Dead())
		ds := eng.DeviceStats()
		fmt.Fprintf(stdout, "device ops:        %d reads, %d programs, %d erases\n",
			ds.Reads, ds.Programs, ds.Erases)
		if fc.Sched.Active() {
			// Printed only under a non-default geometry: the default
			// serial-device report stays byte-identical to the pre-scheduler
			// output.
			ss := eng.SchedStats()
			fmt.Fprintf(stdout, "nand scheduler:    %d channels x %d banks: %d read, %d program, %d erase cmds\n",
				fc.Sched.Channels, fc.Sched.Banks, ss.ReadCmds, ss.ProgramCmds, ss.EraseCmds)
			fmt.Fprintf(stdout, "sched contention:  %d channel waits (%v), %d bank conflicts (%v)\n",
				ss.ChanWaits, ss.ChanWaitTime, ss.BankConflicts, ss.BankWaitTime)
			if fc.Sched.WriteBufPages > 0 {
				fmt.Fprintf(stdout, "write buffer:      %d pages: %d buffered, %d coalesced, %d flushes (%d forced)\n",
					fc.Sched.WriteBufPages, ss.BufferedWrites, ss.CoalescedWrites, ss.Flushes, ss.ForcedFlushes)
			}
		}
		if fc.Feedback() {
			// Printed only with a feedback path configured: feedback-off
			// reports stay byte-identical to the pre-feedback output.
			fmt.Fprintf(stdout, "sched feedback:    %d GC deferrals, %d throttle engagements, %d scrub deferrals (%d idle windows)\n",
				cs.GCDeferred, cs.AdmitThrottleFlips, cs.ScrubDeferred, cs.ScrubWindows)
		}
		if fc.Faults != nil || fc.ScrubEvery > 0 {
			fs := eng.FaultStats()
			fmt.Fprintf(stdout, "faults injected:   %d read flips over %d reads, %d program fails, %d erase fails, %d grown bad\n",
				fs.ReadFlips, fs.ReadInjections, fs.ProgramFails, fs.EraseFails, fs.GrownBad)
			fmt.Fprintf(stdout, "fault recovery:    %d retries (%d recovered), %d remaps, %d program fails, %d erase fails\n",
				cs.ReadRetries, cs.RetryRecoveries, cs.Remaps, cs.ProgramFailures, cs.EraseFailures)
			fmt.Fprintf(stdout, "scrubber:          %d pages scanned, %d migrated, %v background time\n",
				cs.ScrubScans, cs.ScrubMigrations, cs.ScrubTime)
			if err := eng.CheckIntegrity(); err != nil {
				fmt.Fprintf(stdout, "integrity:         FAILED: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "integrity:         OK (%d cached pages verified)\n", eng.ValidPages())
		}
		if fc.Retention.Accel > 0 || fc.Disturb.ReadsPerBit > 0 {
			fmt.Fprintf(stdout, "refresh policy:    %d retention scans, %d refresh rewrites, %d disturb resets\n",
				cs.RetentionScans, cs.RefreshRewrites, cs.DisturbResets)
		}
	}
	if elapsed := max(srv.Elapsed(st.Requests, st.AvgLatency()), eng.DiskBusy()); elapsed > 0 {
		fmt.Fprintf(stdout, "power:             %v\n", eng.Power(elapsed))
	}
	if err := eng.Err(); err != nil {
		fmt.Fprintln(stderr, "fdcsim: degraded service:", err)
		return 1
	}
	return 0
}

// start builds the engine rc describes and restores rc's checkpoint, if
// any (its fingerprint names the shard count; Restore checks it). It
// also returns how much of the stream the checkpointed run simulated.
func start(rc runConfig) (*engine.Engine, int, error) {
	eng, err := engine.New(rc.engine)
	if err != nil || rc.checkpointIn == "" {
		return eng, 0, err
	}
	f, err := os.Open(rc.checkpointIn)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	ck, err := engine.ReadCheckpoint(f)
	switch {
	case err != nil:
		return nil, 0, err
	case ck.Fingerprint != rc.fingerprint:
		return nil, 0, fmt.Errorf("checkpoint configuration mismatch:\n  checkpoint: %s\n  this run:   %s",
			ck.Fingerprint, rc.fingerprint)
	}
	return eng, int(ck.Consumed), eng.Restore(ck)
}

// writeFile creates the named file and fills it with write.
func writeFile(name string, write func(io.Writer) error) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	return errors.Join(write(f), f.Close())
}

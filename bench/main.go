// Command bench is the repository benchmark. It replays four fixed,
// generated FDCT traces through the simulator's batched driving path —
// trace.MapFile, then engine.Engine.RunBatch in trace.DefaultBatch
// chunks — and prints the end-to-end metrics, or with -trace 1 the
// per-layer metrics of an isolation ledger that times each layer on
// its own and proves it did the engine's work. See README.md.
//
// Usage (from the repository root):
//
//	bash bench/run.sh -workload oltp-flash-hit -seed 1 -seconds 10 -trace 0
//	bash bench/run.sh -seed 2 -trace 1        # every workload, held-out seed
//	bash bench/run.sh -compare parent.jsonl change.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"flashdc/internal/engine"
	"flashdc/internal/obs"
	"flashdc/internal/trace"
)

const (
	// setupSamples is how many extra constructions each run times
	// before its repeats: one takes milliseconds, so setup_s is a
	// median over many.
	setupSamples = 15
	// minRepeats is the fewest replays a run takes, however short
	// -seconds is.
	minRepeats = 3
)

func main() {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	var (
		name    = flag.String("workload", "all", "workload to run: "+strings.Join(names, ", ")+", or all")
		seed    = flag.Uint64("seed", 1, "workload seed: 1 for development, 2 held out for checking claims")
		seconds = flag.Float64("seconds", 10, "how long each workload's repeats run")
		traced  = flag.Int("trace", 0, "1 adds the isolation ledger and reports per-layer metrics instead of end-to-end ones")
		out     = flag.String("out", "", "append every result, with the host facts, as a JSON line to this file")
		spans   = flag.String("spans", "", "with -trace 1, write the ledger's spans as JSON lines to this file")
		compare = flag.Bool("compare", false, "compare two -out files given as arguments: parent change")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			usage("-compare needs two result files: parent change")
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	switch {
	case flag.NArg() != 0:
		usage("unexpected arguments %q", flag.Args())
	case *traced != 0 && *traced != 1:
		usage("-trace %d: want 0 or 1", *traced)
	case !(*seconds > 0):
		usage("-seconds %g: want a positive duration", *seconds)
	case *spans != "" && *traced == 0:
		usage("-spans needs -trace 1")
	}
	run := specs
	if *name != "all" {
		s, err := lookupSpec(*name)
		if err != nil {
			usage("%v", err)
		}
		run = []spec{s}
	}

	host := hostFacts()
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d cpu=%q go=%s revision=%s\n",
		host.NProc, host.GOMAXPROCS, host.CPU, host.Go, host.Revision)
	budget := time.Duration(*seconds * float64(time.Second))
	failed := false
	var allSpans []span
	for _, s := range run {
		res, sp, err := measure(s, *seed, budget, *traced == 1)
		if err != nil {
			// The failure names the workload; the result line still
			// follows so a caller parsing the last line sees it.
			fmt.Fprintf(os.Stderr, "bench: workload %s: %v\n", s.Name, err)
			failed = true
		}
		allSpans = append(allSpans, sp...)
		res.Host = host
		if *out != "" {
			if err := appendJSON(*out, res); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				failed = true
			}
		}
		line, err := json.Marshal(res.line())
		if err != nil {
			panic(err)
		}
		fmt.Println(string(line))
	}
	if *spans != "" {
		if err := writeSpans(*spans, allSpans); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

// host records the facts every result is read against.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Revision   string `json:"revision"`
}

func hostFacts() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		CPU: "unknown", Revision: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, st := range bi.Settings {
			if st.Key == "vcs.revision" {
				h.Revision = st.Value
			}
		}
	}
	return h
}

// result is one workload's run. line is what the benchmark contract
// reads; -out files keep the whole record.
type result struct {
	Workload  string    `json:"workload"`
	Seed      uint64    `json:"seed"`
	Trace     int       `json:"trace"`
	Host      host      `json:"host"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

type resultLine struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// tally counts a replay's requests: attempted is every request handed
// to RunBatch, failed the ones it did not report serviced.
func (r *result) tally(rp *replay) {
	r.Attempted += rp.submitted
	r.Failed += rp.submitted - rp.replayed
}

func (r *result) line() resultLine {
	m := r.Metrics
	if m == nil {
		m = metricSet{}
	}
	return resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: m}
}

// measure runs one workload: it generates the trace, times set-up and
// untraced replays for budget, and with traced adds the isolation
// ledger. The result is marked correct only when every check passed;
// on error it carries the counts reached so far.
func measure(s spec, seed uint64, budget time.Duration, traced bool) (*result, []span, error) {
	res := &result{Workload: s.Name, Seed: seed}
	if traced {
		res.Trace = 1
	}
	fmt.Printf("workload %s: %s x%d, seed %d\n", s.Name, s.Trace, s.Requests, seed)
	tf, err := writeTrace(s, seed, os.TempDir())
	if err != nil {
		return res, nil, err
	}
	defer os.Remove(tf.path)

	start := time.Now()
	var setups, kernel []float64
	for i := 0; i < setupSamples; i++ {
		kernel = append(kernel, kernelSample())
		_, src, d, err := setUp(s, tf)
		if err != nil {
			return res, nil, err
		}
		src.Close()
		setups = append(setups, d.Seconds())
	}
	var reps []*replay
	for len(reps) < minRepeats || time.Since(start) < budget {
		kernel = append(kernel, kernelSample())
		r, err := runReplay(s, tf, false)
		if err != nil {
			return res, nil, err
		}
		res.tally(r)
		if len(reps) > 0 {
			if err := sameDigest(reps[0].digest, r.digest, len(reps)); err != nil {
				return res, nil, err
			}
		}
		setups = append(setups, r.setup.Seconds())
		reps = append(reps, r)
	}

	var walls, rates, heaps, batchMS []float64
	for _, r := range reps {
		walls = append(walls, r.wall.Seconds())
		rates = append(rates, float64(r.replayed)/r.wall.Seconds())
		heaps = append(heaps, float64(r.heapBytes)/(1<<20))
		for _, b := range r.batches {
			batchMS = append(batchMS, float64(b)/1e6)
		}
	}
	kq1, _ := quartiles(kernel)
	scale := refKernelNS / kq1
	quiet := quietWall(reps).Seconds()
	sr := reps[0].sim
	e2e := map[string]float64{
		"replay_ops_per_s":    float64(reps[0].replayed) / (quiet * scale),
		"setup_s":             median(setups) * scale,
		"live_heap_mb":        median(heaps),
		"sim_flash_hit_rate":  sr.FlashHitRate,
		"sim_mean_latency_us": sr.MeanLatencyUS,
		"sim_erases_per_mreq": sr.ErasesPerMReq,
		"sim_write_amp":       sr.WriteAmp,
	}
	q1, q3 := quartiles(rates)
	fmt.Printf("  host speed: kernel %.3f ns/iteration (first quartile of %d), host times scaled by %.4f\n",
		kq1, len(kernel), scale)
	fmt.Printf("  as measured: whole repeats %d, median %.0f, p25 %.0f, p75 %.0f req/s; quiet %.0f req/s; setup median %.6f s\n",
		len(rates), median(rates), q1, q3, float64(reps[0].replayed)/quiet, median(setups))
	fmt.Printf("  setup_s over %d constructions; sim latency over %d pages: p99 %.2f us, p999 %.2f us; failed_frac %g\n",
		len(setups), sr.LatencyCount, sr.P99US, sr.P999US, sr.FailedFrac)

	e2eSet, err := fill(endToEnd, e2e)
	if err != nil {
		return res, nil, err
	}
	printTable(os.Stdout, endToEnd, e2eSet)
	if !traced {
		res.Metrics = e2eSet
		res.Correct = res.Failed == 0
		return res, nil, nil
	}

	// Traced run: one more engine replay, kept as the reference the
	// ledger is verified against, then the ledger itself.
	ref, err := runReplay(s, tf, true)
	if err != nil {
		return res, nil, err
	}
	res.tally(ref)
	if err := sameDigest(reps[0].digest, ref.digest, len(reps)); err != nil {
		return res, nil, err
	}
	lg, err := runLedger(s, tf, ref.eng)
	if err != nil {
		return res, nil, err
	}
	res.Attempted += lg.requests

	var off *replay
	if s.Obs != (obs.Options{}) {
		unobserved := s
		unobserved.Obs = obs.Options{}
		if off, err = runReplay(unobserved, tf, false); err != nil {
			return res, nil, err
		}
		res.tally(off)
		if err := sameDigest(reps[0].digest, off.digest, len(reps)); err != nil {
			return res, nil, fmt.Errorf("observer off: %w", err)
		}
	}
	vals := layerMetrics(scale, median(walls), batchMS, ref, lg, off)
	res.Metrics, err = fill(perLayer, vals)
	if err != nil {
		return res, nil, err
	}
	printTable(os.Stdout, perLayer, res.Metrics)
	res.Correct = res.Failed == 0
	spans := append(ref.spans, lg.spans...)
	return res, spans, nil
}

// quietWall estimates one replay's wall time without interference from
// other tenants of the host: the sum, over the trace's batches, of each
// batch's first-quartile time across the repeats. Interference only
// adds time and comes and goes within seconds, so the whole-repeat
// median drifts with it from run to run; a change that slows every
// batch still moves this estimate in full. README.md gives the
// measurements behind the choice.
func quietWall(reps []*replay) time.Duration {
	var total time.Duration
	col := make([]float64, len(reps))
	for b := range reps[0].batches {
		for i, r := range reps {
			col[i] = float64(r.batches[b])
		}
		q1, _ := quartiles(col)
		total += time.Duration(q1)
	}
	return total
}

// setUp is what every replay pays before its first request: building
// the engine and mapping the trace. It starts from memory returned to
// the OS, so that every sample pays the same page faults.
func setUp(s spec, tf traceFile) (*engine.Engine, *trace.MapSource, time.Duration, error) {
	debug.FreeOSMemory()
	t0 := time.Now()
	eng, err := engine.New(s.engineConfig())
	if err != nil {
		return nil, nil, 0, err
	}
	src, err := trace.MapFile(tf.path)
	if err != nil {
		return nil, nil, 0, err
	}
	return eng, src, time.Since(t0), nil
}

func appendJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

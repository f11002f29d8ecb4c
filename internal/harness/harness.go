// Package harness drives the differential correctness harness: it
// replays randomized workloads (optionally under fault campaigns)
// through the engine one request at a time, every shard in lockstep
// with its own naive reference from internal/model, diffing every
// shard's served-tier counters after every request and its full cache
// state at checkpoints. Any divergence is reported with the request
// index (and, when sharded, the shard) that exposed it; the greedy
// shrinker reduces the triggering sequence to a minimal replayable
// corpus entry under testdata/.
package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"flashdc/internal/core"
	"flashdc/internal/engine"
	"flashdc/internal/fault"
	"flashdc/internal/hier"
	"flashdc/internal/model"
	"flashdc/internal/policy"
	"flashdc/internal/sched"
	"flashdc/internal/sim"
	"flashdc/internal/trace"
	"flashdc/internal/wear"
)

// Config describes one lockstep run. The zero value is not usable;
// see Default.
type Config struct {
	// Name labels the configuration in reports and corpus files.
	Name string
	// Seed drives both the workload generator and the simulated
	// hierarchy (wear sampling, fault injection).
	Seed uint64
	// Ops is the number of requests to generate.
	Ops int
	// DRAMBytes and FlashBytes size the tiers; FlashBytes 0 drops the
	// Flash tier entirely.
	DRAMBytes, FlashBytes int64
	// FootprintPages bounds the LBA space touched.
	FootprintPages int64
	// WriteFrac is the probability a request is a write.
	WriteFrac float64
	// MaxRun bounds request lengths: requests are mostly single-page
	// with occasional runs up to MaxRun pages. 0 means single-page.
	MaxRun int
	// Shards is the engine's shard count; 0 and 1 both mean one
	// shard, which is the monolithic hier.System.
	Shards int
	// CheckEvery is the full-state checkpoint period in requests,
	// applied to every shard; 0 checks only after the final drain.
	CheckEvery int
	// Faults, when non-nil, runs the workload under this injection
	// campaign.
	Faults *fault.Plan
	// ScrubEvery configures the background scrubber.
	ScrubEvery int
	// Retention/Disturb enable the reliability-realism error
	// processes; RefreshThreshold tunes the scrubber's refresh policy
	// under them. Both processes are deterministic, and the model's
	// Flash may-serve over-approximation tolerates the pages they cost.
	Retention        wear.RetentionParams
	Disturb          wear.DisturbParams
	RefreshThreshold float64
	// Policies selects the Flash cache's policy set (zero value = the
	// paper defaults). The model mirrors WLFC admission exactly and
	// tolerates any eviction/GC choice through its may-set, so every
	// registered combination is divergence-checkable.
	Policies policy.Set
	// Sched selects the NAND scheduler geometry (channels, banks,
	// write buffer). The model is timing-blind, so any geometry must
	// replay with zero divergences — that is the proof the scheduler
	// changes device *time* and never hit/miss semantics. With the
	// scrubber on, a parallel geometry also defers scrub migrations
	// into idle bank windows (core.Config.ScrubDefers), which moves
	// only the background instant a migration runs at.
	Sched sched.Config
}

// Default returns a small, fast, fault-free configuration.
func Default(seed uint64) Config {
	return Config{
		Name:           "default",
		Seed:           seed,
		Ops:            20000,
		DRAMBytes:      64 << 10, // 32 pages: high eviction traffic
		FlashBytes:     8 << 20,  // 32 MLC blocks
		FootprintPages: 2048,
		WriteFrac:      0.3,
		MaxRun:         4,
		CheckEvery:     1000,
	}
}

// hierConfig assembles the hierarchy configuration a lockstep run
// simulates. Readahead stays off and the PDC policy stays LRU — the
// model refuses anything else.
func hierConfig(cfg Config) hier.Config {
	hc := hier.Config{
		DRAMBytes:  cfg.DRAMBytes,
		FlashBytes: cfg.FlashBytes,
		Seed:       cfg.Seed,
	}
	if cfg.FlashBytes > 0 {
		fc := core.DefaultConfig(cfg.FlashBytes)
		fc.Faults = cfg.Faults
		fc.ScrubEvery = cfg.ScrubEvery
		fc.Retention = cfg.Retention
		fc.Disturb = cfg.Disturb
		fc.RefreshThreshold = cfg.RefreshThreshold
		fc.Policies = cfg.Policies
		fc.Sched = cfg.Sched
		hc.Flash = fc
	}
	return hc
}

// Divergence reports the first disagreement between the system and
// the model.
type Divergence struct {
	// Op is the index of the request that exposed the divergence, or
	// -1 when it surfaced during the final drain.
	Op int
	// Req is the request at Op (zero for the final drain).
	Req trace.Request
	// Detail describes the disagreement.
	Detail string
}

func (d *Divergence) Error() string {
	if d.Op < 0 {
		return fmt.Sprintf("divergence after drain: %s", d.Detail)
	}
	return fmt.Sprintf("divergence at op %d (%s): %s", d.Op, formatReq(d.Req), d.Detail)
}

// Generate produces the request sequence for cfg.
func Generate(cfg Config) []trace.Request {
	rng := sim.NewRNG(cfg.Seed ^ 0x9e3779b97f4a7c15)
	reqs := make([]trace.Request, cfg.Ops)
	for i := range reqs {
		req := trace.Request{Op: trace.OpRead, Pages: 1}
		if rng.Bool(cfg.WriteFrac) {
			req.Op = trace.OpWrite
		}
		if cfg.MaxRun > 1 && rng.Bool(0.15) {
			req.Pages = 1 + rng.Intn(cfg.MaxRun)
		}
		span := cfg.FootprintPages - int64(req.Pages)
		if span < 1 {
			span = 1
		}
		req.LBA = int64(rng.Uint64n(uint64(span)))
		reqs[i] = req
	}
	return reqs
}

// Run generates cfg's workload and replays it in lockstep. It returns
// nil when system and model agree throughout, or the first
// *Divergence.
func Run(cfg Config) error { return Replay(cfg, Generate(cfg)) }

// Replay runs an explicit request sequence in lockstep under cfg's
// hierarchy configuration. The sequence-as-argument form is what the
// shrinker minimizes over and the corpus replays.
func Replay(cfg Config, reqs []trace.Request) error {
	hc := hierConfig(cfg)
	return lockstep(hc, hc, max(cfg.Shards, 1), reqs, cfg.CheckEvery)
}

// lockstep drives the engine one request at a time, each shard beside
// its own model. After every request, every shard's DRAM-served page
// count must match its model exactly, Flash may serve only pages the
// model allows, and the tier counts must add up. Full-state checks
// run on every shard every checkEvery requests and after the final
// drain. The system and model configs are separate parameters so
// tests can prove the harness detects a mismatched pair; real runs
// pass the same config twice.
func lockstep(sysCfg, modelCfg hier.Config, shards int, reqs []trace.Request, checkEvery int) error {
	// One worker: a one-request batch leaves the others nothing to do.
	eng, err := engine.New(engine.Config{Shards: shards, Workers: 1, Hier: sysCfg})
	if err != nil {
		return err
	}
	// Each shard is an independent hierarchy sized at 1/N of the
	// configured capacities (see engine.New); its model must mirror
	// the shard it checks, not the whole machine.
	shardCfg := modelCfg
	shardCfg.DRAMBytes /= int64(shards)
	shardCfg.FlashBytes /= int64(shards)
	models := make([]*model.Model, shards)
	for s := range models {
		if models[s], err = model.New(shardCfg); err != nil {
			return err
		}
	}
	// diverged labels a disagreement with its shard when there is
	// more than one.
	diverged := func(op int, req trace.Request, s int, detail string) *Divergence {
		if shards > 1 {
			detail = fmt.Sprintf("shard %d: %s", s, detail)
		}
		return &Divergence{Op: op, Req: req, Detail: detail}
	}
	// want holds each shard's predicted page counts for one request.
	type want struct{ pdc, nonDRAM, possible int64 }
	wants := make([]want, shards)
	prev := make([]hier.Stats, shards)
	for i, req := range reqs {
		clear(wants)
		trace.SplitRuns(req, shards, func(s int, run trace.Request) {
			p := models[s].Step(run)
			wants[s].pdc += int64(p.PDCHits)
			wants[s].nonDRAM += int64(len(p.NonDRAM))
			for _, f := range p.NonDRAM {
				if f.FlashPossible {
					wants[s].possible++
				}
			}
		})
		// A dead Flash tier degrades service rather than failing
		// the request: it is not a divergence, because requests are
		// still served correctly from the remaining tiers, which is
		// exactly what the model checks.
		eng.RunBatch(reqs[i : i+1])
		for s, w := range wants {
			st := eng.Shard(s).Stats()
			pdc := st.PDCHits - prev[s].PDCHits
			flash := st.FlashHits - prev[s].FlashHits
			disk := st.DiskReads - prev[s].DiskReads
			prev[s] = st
			if pdc != w.pdc {
				return diverged(i, req, s, fmt.Sprintf(
					"DRAM served %d pages, model requires exactly %d", pdc, w.pdc))
			}
			if flash+disk != w.nonDRAM {
				return diverged(i, req, s, fmt.Sprintf(
					"flash+disk served %d pages, model requires %d", flash+disk, w.nonDRAM))
			}
			if flash > w.possible {
				return diverged(i, req, s, fmt.Sprintf(
					"Flash served %d pages, model allows at most %d", flash, w.possible))
			}
		}
		if checkEvery > 0 && (i+1)%checkEvery == 0 {
			for s, m := range models {
				if err := model.Check(eng.Shard(s), m); err != nil {
					return diverged(i, req, s, err.Error())
				}
			}
		}
	}
	eng.Drain()
	for s, m := range models {
		m.Drain()
		if err := model.Check(eng.Shard(s), m); err != nil {
			return diverged(-1, trace.Request{}, s, err.Error())
		}
	}
	return nil
}

// Shrink greedily minimizes a failing request sequence: it repeatedly
// tries dropping chunks (halving the chunk size down to single
// requests) and keeps any reduction under which Replay still
// diverges. The result replays to a divergence under cfg.
func Shrink(cfg Config, reqs []trace.Request) []trace.Request {
	return shrinkWith(cfg, reqs, func(seq []trace.Request) bool {
		// Only genuine divergences count; config errors would make
		// the empty sequence "fail" and shrink everything away.
		var d *Divergence
		return asDivergence(Replay(cfg, seq), &d)
	})
}

// shrinkWith is Shrink with an explicit failure predicate (the seam
// the shrinker's own tests use).
func shrinkWith(_ Config, reqs []trace.Request, fails func([]trace.Request) bool) []trace.Request {
	if !fails(reqs) {
		return reqs
	}
	for chunk := len(reqs) / 2; chunk >= 1; {
		removed := false
		for start := 0; start+chunk <= len(reqs); {
			candidate := make([]trace.Request, 0, len(reqs)-chunk)
			candidate = append(candidate, reqs[:start]...)
			candidate = append(candidate, reqs[start+chunk:]...)
			if fails(candidate) {
				reqs = candidate
				removed = true
				// Re-test the same start against the shorter tail.
			} else {
				start += chunk
			}
		}
		if !removed && chunk == 1 {
			break
		}
		if chunk > 1 {
			chunk /= 2
		} else if !removed {
			break
		}
	}
	return reqs
}

func asDivergence(err error, out **Divergence) bool {
	d, ok := err.(*Divergence)
	if ok {
		*out = d
	}
	return ok
}

// corpusHeader is the first line of a corpus file: the JSON-encoded
// Config behind a trace comment marker, so the body stays a plain
// trace.Reader stream.
const corpusHeader = "# harness-config "

// WriteCorpus saves a (config, sequence) pair as a replayable corpus
// entry.
func WriteCorpus(path string, cfg Config, reqs []trace.Request) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc, err := json.Marshal(cfg)
	if err != nil {
		f.Close()
		return err
	}
	w := trace.NewWriter(f)
	if _, err := fmt.Fprintf(f, "%s%s\n", corpusHeader, enc); err != nil {
		f.Close()
		return err
	}
	for _, req := range reqs {
		if err := w.Write(req); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadCorpus reads a corpus entry back.
func LoadCorpus(path string) (Config, []trace.Request, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, nil, err
	}
	text := string(data)
	nl := strings.IndexByte(text, '\n')
	if nl < 0 || !strings.HasPrefix(text, corpusHeader) {
		return Config{}, nil, fmt.Errorf("harness: %s: missing config header", path)
	}
	// Unknown keys are errors: a key naming a deleted or misspelled
	// field would otherwise replay a different configuration silently.
	dec := json.NewDecoder(strings.NewReader(text[len(corpusHeader):nl]))
	dec.DisallowUnknownFields()
	var cfg Config
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, nil, fmt.Errorf("harness: %s: %v", path, err)
	}
	r := trace.NewReader(strings.NewReader(text[nl+1:]))
	var reqs []trace.Request
	for {
		req, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return Config{}, nil, fmt.Errorf("harness: %s: %v", path, err)
		}
		reqs = append(reqs, req)
	}
	return cfg, reqs, nil
}

func formatReq(req trace.Request) string {
	op := "R"
	if req.Op == trace.OpWrite {
		op = "W"
	}
	return fmt.Sprintf("%s %d %d", op, req.LBA, req.Pages)
}

package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flashdc/internal/fault"
	"flashdc/internal/policy"
	"flashdc/internal/sched"
	"flashdc/internal/trace"
	"flashdc/internal/wear"
)

// sweepConfigs is the CI lockstep matrix: seeds, fault campaigns,
// scrub cadences, shard counts, and tier shapes. At full depth it
// replays over 200k ops; -short trims the op budgets, not the matrix.
func sweepConfigs() []Config {
	heavyFaults := &fault.Plan{
		Seed:            99,
		ReadFlipRate:    0.02,
		ReadFlipMax:     6,
		ProgramFailRate: 0.002,
		EraseFailRate:   0.001,
		GrownBadRate:    0.3,
	}
	burstFaults := &fault.Plan{
		Seed:         7,
		ReadFlipRate: 0.005,
		BurstEvery:   2000,
		BurstLen:     200,
		BurstFactor:  25,
	}
	mk := func(name string, seed uint64, over func(*Config)) Config {
		cfg := Default(seed)
		cfg.Name = name
		cfg.Ops = 30000
		if over != nil {
			over(&cfg)
		}
		return cfg
	}
	return []Config{
		mk("baseline", 1, nil),
		mk("tiny-dram-churn", 2, func(c *Config) {
			c.DRAMBytes = 16 << 10 // 8 pages: constant eviction
			c.WriteFrac = 0.5
		}),
		mk("no-flash", 3, func(c *Config) {
			c.FlashBytes = 0
		}),
		mk("hot-footprint", 4, func(c *Config) {
			c.FootprintPages = 256 // everything cacheable, heavy reuse
			c.MaxRun = 8
		}),
		mk("fault-storm", 5, func(c *Config) {
			c.Faults = heavyFaults
			c.WriteFrac = 0.4
		}),
		mk("burst-faults-scrubbed", 6, func(c *Config) {
			c.Faults = burstFaults
			c.ScrubEvery = 500
		}),
		mk("sharded-4", 7, func(c *Config) {
			c.Shards = 4
		}),
		mk("sharded-8-faulty", 8, func(c *Config) {
			c.Shards = 8
			c.Faults = heavyFaults
			c.FootprintPages = 8192
		}),
		mk("retention-disturb-refresh", 9, func(c *Config) {
			// Aggressive acceleration so both processes actually fire
			// within the op budget (the hierarchy clock advances only by
			// op latencies here): these knobs measurably produce refresh
			// rewrites AND disturb resets at 30k ops. The refresh policy
			// must keep the system and model in agreement while defending.
			c.Retention = wear.RetentionParams{Accel: 1e8}
			c.Disturb = wear.DisturbParams{ReadsPerBit: 50}
			c.ScrubEvery = 500
			c.RefreshThreshold = 0.75
		}),
		mk("sharded-4-retention-faulty", 10, func(c *Config) {
			c.Shards = 4
			c.Retention = wear.RetentionParams{Accel: 1e8}
			c.Disturb = wear.DisturbParams{ReadsPerBit: 50}
			c.ScrubEvery = 500
			c.RefreshThreshold = 0.75
			c.Faults = burstFaults
		}),
	}
}

// TestLockstepSweep is the acceptance gate: every configuration must
// replay with zero divergences.
func TestLockstepSweep(t *testing.T) {
	total := 0
	for _, cfg := range sweepConfigs() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			if testing.Short() {
				cfg.Ops = 4000
			}
			if err := Run(cfg); err != nil {
				t.Fatal(err)
			}
			total += cfg.Ops
		})
	}
	if !testing.Short() && total < 200000 {
		t.Fatalf("sweep replayed only %d ops, acceptance floor is 200000", total)
	}
}

// TestChannelSweep is the scheduler's differential proof: the model is
// timing-blind, so a channel/bank/write-buffer geometry that replays
// with zero divergences demonstrably changed only device timing and
// wear accounting, never which tier served which page. The sweep
// covers plain channel striping, deep bank interleaving, the
// coalescing write buffer, a fault campaign under parallel geometry,
// and the sharded engine path.
func TestChannelSweep(t *testing.T) {
	mk := func(name string, seed uint64, geo sched.Config, over func(*Config)) Config {
		cfg := Default(seed)
		cfg.Name = name
		cfg.Ops = 30000
		cfg.Sched = geo
		if over != nil {
			over(&cfg)
		}
		return cfg
	}
	configs := []Config{
		mk("channels-4", 21, sched.Config{Channels: 4}, nil),
		mk("channels-8-banks-4", 22, sched.Config{Channels: 8, Banks: 4}, nil),
		mk("wbuf-coalescing", 23, sched.Config{Channels: 2, WriteBufPages: 16}, func(c *Config) {
			c.WriteFrac = 0.6 // rewrite-heavy so coalescing actually fires
			c.FootprintPages = 256
		}),
		mk("channels-faulty", 24, sched.Config{Channels: 4, Banks: 2, WriteBufPages: 8}, func(c *Config) {
			c.Faults = &fault.Plan{
				Seed:            99,
				ReadFlipRate:    0.02,
				ReadFlipMax:     6,
				ProgramFailRate: 0.002,
				GrownBadRate:    0.3,
			}
		}),
		mk("channels-sharded-4", 25, sched.Config{Channels: 4, Banks: 2, WriteBufPages: 8}, func(c *Config) {
			c.Shards = 4
		}),
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			if testing.Short() {
				cfg.Ops = 4000
			}
			if err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFeedbackSweep is the scheduler-feedback differential proof: with
// the occupancy feedback loop closed — contention-aware GC consulting
// bank waits, throttle admission consulting the write-buffer fill,
// scrub feedback batching migrations into idle windows — the
// timing-blind model must still replay with zero divergences, because
// every feedback signal is deterministic simulated-time state and the
// model's may-set bounds any admission the throttle rejects.
func TestFeedbackSweep(t *testing.T) {
	mk := func(name string, seed uint64, geo sched.Config, over func(*Config)) Config {
		cfg := Default(seed)
		cfg.Name = name
		cfg.Ops = 30000
		cfg.Sched = geo
		if over != nil {
			over(&cfg)
		}
		return cfg
	}
	configs := []Config{
		mk("gc-contention-8x2", 41, sched.Config{Channels: 8, Banks: 2}, func(c *Config) {
			c.Policies = policy.Set{GC: policy.GCContentionAware}
		}),
		mk("admit-throttle-wbuf", 42, sched.Config{Channels: 2, WriteBufPages: 8}, func(c *Config) {
			c.Policies = policy.Set{Admit: policy.AdmitThrottle}
			c.WriteFrac = 0.6 // write-heavy so the buffer actually fills
			c.FootprintPages = 256
		}),
		mk("scrub-feedback-windows", 43, sched.Config{Channels: 4, Banks: 2}, func(c *Config) {
			c.ScrubEvery = 500
			c.Retention = wear.RetentionParams{Accel: 1e8}
			c.Disturb = wear.DisturbParams{ReadsPerBit: 50}
			c.RefreshThreshold = 0.75
		}),
		mk("all-feedback", 44, sched.Config{Channels: 4, Banks: 2, WriteBufPages: 8}, func(c *Config) {
			c.Policies = policy.Set{GC: policy.GCContentionAware, Admit: policy.AdmitThrottle}
			c.ScrubEvery = 500
			c.Retention = wear.RetentionParams{Accel: 1e8}
			c.Disturb = wear.DisturbParams{ReadsPerBit: 50}
			c.RefreshThreshold = 0.75
			c.WriteFrac = 0.5
		}),
		mk("all-feedback-sharded-4", 45, sched.Config{Channels: 4, Banks: 2, WriteBufPages: 8}, func(c *Config) {
			c.Policies = policy.Set{GC: policy.GCContentionAware, Admit: policy.AdmitThrottle}
			c.ScrubEvery = 500
			c.Shards = 4
			c.WriteFrac = 0.5
		}),
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			if testing.Short() {
				cfg.Ops = 4000
			}
			if err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// policySets is the non-default policy matrix the differential
// harness must clear: each write-reduction policy alone, then the
// whole zoo at once. The paper-default set is absent because every
// other test already runs it. The scheduler-feedback policies appear
// here without a sched geometry, which exercises their documented
// clockless degradation (contention-aware selects like greedy,
// throttle never engages); their fed-back form runs under
// TestFeedbackSweep with real geometries.
func policySets() []policy.Set {
	return []policy.Set{
		{Admit: policy.AdmitWLFC},
		{Evict: policy.EvictCMWear},
		{GC: policy.GCCostBenefit},
		{GC: policy.GCContentionAware},
		{Admit: policy.AdmitThrottle},
		{Evict: policy.EvictCMWear, Admit: policy.AdmitWLFC, GC: policy.GCCostBenefit},
	}
}

// TestPolicySweep replays the lockstep matrix under every non-default
// policy set: the model mirrors WLFC admission exactly and bounds the
// rest through its may-set, so zero divergences is the acceptance bar
// for the whole zoo. The no-flash configuration is skipped (no Flash
// tier means no Flash policies to exercise).
func TestPolicySweep(t *testing.T) {
	for _, ps := range policySets() {
		ps := ps
		t.Run(ps.Normalized().String(), func(t *testing.T) {
			for _, cfg := range sweepConfigs() {
				cfg := cfg
				if cfg.FlashBytes == 0 {
					continue
				}
				t.Run(cfg.Name, func(t *testing.T) {
					cfg.Ops = 8000
					if testing.Short() {
						cfg.Ops = 2000
					}
					cfg.Policies = ps
					if err := Run(cfg); err != nil {
						t.Fatal(err)
					}
				})
			}
		})
	}
}

// TestRegressionCorpus replays every shrunk trace under testdata/:
// each was committed with the fix for the divergence it exposed, so
// all must now pass.
func TestRegressionCorpus(t *testing.T) {
	paths, err := filepath.Glob("testdata/*.trace")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no corpus entries under testdata/")
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			cfg, reqs, err := LoadCorpus(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := Replay(cfg, reqs); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShrinkMinimizes pins the shrinker on a synthetic divergence: a
// config whose model rejects readahead... instead we drive it with a
// predicate-level fault by replaying against a mismatched config
// (different DRAM size than the trace assumes is irrelevant — any
// real divergence works). Since the tree is currently divergence-free
// we synthesize one: replay reports a Divergence if and only if the
// sequence contains a marker request, then check Shrink reduces to
// exactly that request. The marker is injected through a tiny local
// predicate on top of the exported pieces.
func TestShrinkMinimizes(t *testing.T) {
	// Build a sequence where a single deep-buried write is "the bug".
	cfg := Default(11)
	cfg.Ops = 0
	var reqs []trace.Request
	for i := 0; i < 500; i++ {
		reqs = append(reqs, trace.Request{Op: trace.OpRead, LBA: int64(i % 100), Pages: 1})
	}
	marker := trace.Request{Op: trace.OpWrite, LBA: 4242, Pages: 3}
	reqs = append(reqs[:250:250], append([]trace.Request{marker}, reqs[250:]...)...)

	shrunk := shrinkWith(cfg, reqs, func(seq []trace.Request) bool {
		for _, r := range seq {
			if r == marker {
				return true
			}
		}
		return false
	})
	if len(shrunk) != 1 || shrunk[0] != marker {
		t.Fatalf("shrunk to %d requests %v, want just the marker", len(shrunk), shrunk)
	}
}

// TestCorpusRoundTrip pins the corpus file format.
func TestCorpusRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rt.trace")
	cfg := Default(21)
	cfg.Name = "round-trip"
	cfg.Ops = 32
	reqs := Generate(cfg)
	if err := WriteCorpus(path, cfg, reqs); err != nil {
		t.Fatal(err)
	}
	got, gotReqs, err := LoadCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != cfg.Name || got.Seed != cfg.Seed || got.DRAMBytes != cfg.DRAMBytes {
		t.Fatalf("config round-trip: got %+v", got)
	}
	if len(gotReqs) != len(reqs) {
		t.Fatalf("got %d requests, wrote %d", len(gotReqs), len(reqs))
	}
	for i := range reqs {
		if gotReqs[i] != reqs[i] {
			t.Fatalf("request %d: got %+v, wrote %+v", i, gotReqs[i], reqs[i])
		}
	}
	if _, _, err := LoadCorpus(filepath.Join(dir, "missing.trace")); err == nil {
		t.Fatal("missing file loaded")
	}
	if err := os.WriteFile(path, []byte("R 0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadCorpus(path); err == nil {
		t.Fatal("headerless corpus loaded")
	}
	misspelled := corpusHeader + `{"Name":"typo","Seed":1,"DRAMBytse":65536}` + "\nR 0 1\n"
	if err := os.WriteFile(path, []byte(misspelled), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadCorpus(path); err == nil || !strings.Contains(err.Error(), "DRAMBytse") {
		t.Fatalf("header with a misspelled key loaded (err %v)", err)
	}
}

// TestDivergenceDetection proves the harness can actually see a lying
// system at every shard count: a sequence replayed against models
// sized for 4x the real DRAM must diverge (the mirror predicts hits
// the real, smaller cache cannot serve) at a real request index, and a
// sharded divergence must name its shard. This guards against the
// harness silently agreeing with everything.
func TestDivergenceDetection(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			cfg := Default(31)
			cfg.Ops = 2000
			reqs := Generate(cfg)
			hc := hierConfig(cfg)
			big := hc
			big.DRAMBytes *= 4 // the model mirrors a cache 4x the real one
			err := lockstep(hc, big, shards, reqs, cfg.CheckEvery)
			var d *Divergence
			if !asDivergence(err, &d) {
				t.Fatalf("mismatched replay reported %v, want a divergence", err)
			}
			if d.Op < 0 {
				t.Fatalf("divergence %v has no request index", d)
			}
			if named := strings.HasPrefix(d.Detail, "shard "); named != (shards > 1) {
				t.Fatalf("divergence %v: names a shard %v, want %v", d, named, shards > 1)
			}
		})
	}
}

// FuzzLockstep decodes arbitrary bytes into a request sequence and
// replays it in lockstep under a small fixed configuration; any
// divergence (or panic) is a finding.
func FuzzLockstep(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x03, 0x04, 0x80, 0x41})
	f.Add([]byte("R 1 1 W 2 2"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cfg := Default(uint64(data[0]))
		cfg.Ops = 0
		cfg.DRAMBytes = 16 << 10
		cfg.FootprintPages = 512
		var reqs []trace.Request
		for i := 1; i+1 < len(data) && len(reqs) < 4096; i += 2 {
			req := trace.Request{
				Op:    trace.OpRead,
				LBA:   int64(data[i]) * 3,
				Pages: 1 + int(data[i+1]%4),
			}
			if data[i]&0x80 != 0 {
				req.Op = trace.OpWrite
			}
			reqs = append(reqs, req)
		}
		if err := Replay(cfg, reqs); err != nil {
			t.Fatal(err)
		}
	})
}

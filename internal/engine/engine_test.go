package engine

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"flashdc/internal/core"
	"flashdc/internal/fault"
	"flashdc/internal/hier"
	"flashdc/internal/nand"
	"flashdc/internal/obs"
	"flashdc/internal/power"
	"flashdc/internal/sim"
	"flashdc/internal/tables"
	"flashdc/internal/trace"
	"flashdc/internal/workload"
)

const (
	testRequests = 30000
	testSeed     = 3
)

func testConfig() hier.Config {
	return hier.Config{DRAMBytes: 4 << 20, FlashBytes: 32 << 20, Seed: testSeed}
}

// snapshot captures every merged result the engine reports, so tests
// can compare whole runs with one DeepEqual.
type snapshot struct {
	Stats     hier.Stats
	Latencies string
	Flash     core.Stats
	Global    tables.FGST
	Device    nand.Stats
	Faults    fault.Stats
	Valid     int64
	Busy      sim.Duration
	Power     power.Breakdown
}

func snap(t *testing.T, e *Engine) snapshot {
	t.Helper()
	if err := e.CheckIntegrity(); err != nil {
		t.Fatalf("integrity: %v", err)
	}
	return snapshot{
		Stats:     e.Stats(),
		Latencies: e.Latencies().String(),
		Flash:     e.FlashStats(),
		Global:    e.Global(),
		Device:    e.DeviceStats(),
		Faults:    e.FaultStats(),
		Valid:     e.ValidPages(),
		Busy:      e.DiskBusy(),
		Power:     e.Power(sim.Second),
	}
}

func newTestGen(t *testing.T) workload.Generator {
	t.Helper()
	g, err := workload.New("alpha2", 1.0/16, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// runSource replays the standard test stream as one global source
// through the engine's router.
func runSource(t *testing.T, shards, workers int) *Engine {
	t.Helper()
	e, err := New(Config{Shards: shards, Workers: workers, Hier: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if n := e.RunSource(workload.AsSource(newTestGen(t)), testRequests); n != testRequests {
		t.Fatalf("RunSource consumed %d requests, want %d", n, testRequests)
	}
	e.Drain()
	return e
}

// TestSingleShardMatchesMonolithic is the tentpole invariant: a
// one-shard engine must reproduce a directly driven hier.System
// bit-for-bit — same counters, same latency distribution, same Flash
// device activity, same power.
func TestSingleShardMatchesMonolithic(t *testing.T) {
	sys := hier.New(testConfig())
	g := newTestGen(t)
	reqs := make([]trace.Request, testRequests)
	for i := range reqs {
		reqs[i] = g.Next()
	}
	sys.RunBatch(reqs)
	sys.Drain()

	e := runSource(t, 1, 1)

	if got, want := e.Stats(), sys.Stats(); got != want {
		t.Fatalf("stats:\n got %+v\nwant %+v", got, want)
	}
	if got, want := e.Latencies().String(), sys.Latencies().String(); got != want {
		t.Fatalf("latencies: got %q want %q", got, want)
	}
	if got, want := e.FlashStats(), sys.Flash().Stats(); got != want {
		t.Fatalf("flash stats:\n got %+v\nwant %+v", got, want)
	}
	if got, want := e.DeviceStats(), sys.Flash().DeviceStats(); got != want {
		t.Fatalf("device stats: got %+v want %+v", got, want)
	}
	if got, want := e.Global(), sys.Flash().Global(); got != want {
		t.Fatalf("global table: got %+v want %+v", got, want)
	}
	if got, want := e.DiskBusy(), sys.DiskBusy(); got != want {
		t.Fatalf("disk busy: got %v want %v", got, want)
	}
	if got, want := e.Power(sim.Second), sys.PowerWithAppTraffic(sim.Second, 0); got != want {
		t.Fatalf("power: got %+v want %+v", got, want)
	}
}

// TestWorkerCountIndependence is the reproducibility guarantee: for a
// fixed (seed, shards) pair the merged results must be identical no
// matter how many workers replay the shards or how the scheduler
// interleaves them. CI runs this under -race at -cpu 1,4,8.
func TestWorkerCountIndependence(t *testing.T) {
	const shards = 4
	base := snap(t, runSource(t, shards, 1))
	for _, workers := range []int{2, shards, 0} {
		if got := snap(t, runSource(t, shards, workers)); !reflect.DeepEqual(got, base) {
			t.Fatalf("workers=%d diverged from workers=1:\n got %+v\nwant %+v", workers, got, base)
		}
	}
}

// TestGlobalSourceMatchesShardSlices: routing one global stream through
// the engine must land every shard the exact request sequence it would
// see replaying its own slice of the stream (trace.SplitRuns) directly,
// so the sharded result is a pure function of the partition.
func TestGlobalSourceMatchesShardSlices(t *testing.T) {
	const shards = 4
	e := runSource(t, shards, shards)
	slices := make([][]trace.Request, shards)
	g := newTestGen(t)
	for i := 0; i < testRequests; i++ {
		trace.SplitRuns(g.Next(), shards, func(s int, run trace.Request) {
			slices[s] = append(slices[s], run)
		})
	}
	for s, reqs := range slices {
		cfg := testConfig()
		cfg.DRAMBytes /= shards
		cfg.FlashBytes /= shards
		cfg.Seed = ShardSeed(testSeed, s)
		sys := hier.New(cfg)
		sys.RunBatch(reqs)
		sys.Drain()
		if got, want := e.Shard(s).Stats(), sys.Stats(); got != want {
			t.Fatalf("shard %d stats:\n got %+v\nwant %+v", s, got, want)
		}
		if got, want := e.Shard(s).Flash().Stats(), sys.Flash().Stats(); got != want {
			t.Fatalf("shard %d flash stats:\n got %+v\nwant %+v", s, got, want)
		}
		if got, want := e.Shard(s).Latencies().String(), sys.Latencies().String(); got != want {
			t.Fatalf("shard %d latencies: got %q want %q", s, got, want)
		}
	}
}

func TestShardSeed(t *testing.T) {
	const base = 12345
	if ShardSeed(base, 0) != base {
		t.Fatal("shard 0 must keep the base seed (monolithic equivalence)")
	}
	seen := map[uint64]int{base: 0}
	for i := 1; i < 64; i++ {
		s := ShardSeed(base, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("shards %d and %d share seed %d", prev, i, s)
		}
		seen[s] = i
		if s != ShardSeed(base, i) {
			t.Fatalf("shard %d seed not deterministic", i)
		}
	}
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"zero shards", Config{Shards: 0, Hier: testConfig()}, "at least 1 shard"},
		{"negative workers", Config{Shards: 1, Workers: -1, Hier: testConfig()}, "negative worker"},
		{"dram too small", Config{Shards: 1 << 20, Hier: testConfig()}, "DRAM"},
		{"flash too small", Config{Shards: 512, Hier: hier.Config{DRAMBytes: 1 << 30, FlashBytes: 32 << 20}}, "each of 512 shards gets 65536 bytes of Flash: core: 65536 bytes of flash is too small"},
		// Rejected before anything is allocated: the shard's blocks
		// alone would hold 64 GiB of slot state.
		{"flash beyond page addresses", Config{Shards: 1, Hier: hier.Config{DRAMBytes: 1 << 20, FlashBytes: (nand.MaxBlocks + 1) << 18}}, "16777217 blocks (at most 16777216)"},
		// A custom cache configuration is checked, not left to panic in
		// core.New.
		{"flash config invalid", Config{Shards: 2, Hier: hier.Config{DRAMBytes: 1 << 20, FlashBytes: 16 << 20, Flash: core.Config{FlashBytes: 16 << 20}}}, "core: read fraction 0 outside (0,1]"},
		// Each shard's blocks are addressable, but together the shards'
		// per-page state would pass MaxResidentBytes.
		{"flash beyond resident limit", Config{Shards: 2, Hier: hier.Config{DRAMBytes: 1 << 20, FlashBytes: 400 << 30}}, "each of 2 shards needs"},
		{"dram beyond resident limit", Config{Shards: 1, Hier: hier.Config{DRAMBytes: 1 << 40}}, "over the 8589934592-byte limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New(%+v) err = %v, want containing %q", tc.cfg, err, tc.want)
			}
		})
	}
}

// TestValidateResidentLimit: Validate sums each shard's per-page state
// and event trace ring and refuses the configuration whose total passes
// MaxResidentBytes, however the shards split it; it allocates nothing,
// so this test can ask about sizes it could never build.
func TestValidateResidentLimit(t *testing.T) {
	// half is the ring that fills half the limit: it fits one shard,
	// but two shards each need it beside their own per-page state.
	half := int(MaxResidentBytes / 2 / unsafe.Sizeof(obs.Event{}))
	for _, tc := range []struct {
		shards int
		flash  int64
		obs    obs.Options
		ok     bool
	}{
		{1, 180 << 30, obs.Options{}, true},
		{1, 200 << 30, obs.Options{}, false},
		{4, 180 << 30, obs.Options{}, true},
		{4, 200 << 30, obs.Options{}, false},
		{1, 180 << 30, obs.Options{Trace: true}, true},
		{1, 8 << 20, obs.Options{Trace: true, TraceCapacity: 200000000}, false},
		{1, 8 << 20, obs.Options{TraceCapacity: 200000000}, true},
		{1, 8 << 20, obs.Options{Trace: true, TraceCapacity: half}, true},
		{2, 8 << 20, obs.Options{Trace: true, TraceCapacity: half}, false},
		{1, 8 << 20, obs.Options{Trace: true, TraceCapacity: math.MaxInt}, false},
	} {
		cfg := Config{Shards: tc.shards, Hier: hier.Config{DRAMBytes: 64 << 20, FlashBytes: tc.flash}, Obs: tc.obs}
		if err := cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%d shards, %d MiB of Flash, %+v: Validate = %v, want ok %v", tc.shards, tc.flash>>20, tc.obs, err, tc.ok)
		}
	}
}

// TestErrPropagation: 2-shard engines whose Flash tiers wear out
// report hier.ErrFlashDead through Engine.Err, naming the
// lowest-indexed dead shard, while every request is still served. At
// seed 4 only shard 1 has died when the first death stops the replay;
// at seed 1 both have.
func TestErrPropagation(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		dead []bool
	}{{4, []bool{false, true}}, {1, []bool{true, true}}} {
		cfg := hier.Config{DRAMBytes: 512 << 10, FlashBytes: 4 << 20, Seed: tc.seed}
		cfg.Flash = core.DefaultConfig(cfg.FlashBytes)
		cfg.Flash.WearAcceleration = 100000
		e, err := New(Config{Shards: 2, Hier: cfg})
		if err != nil {
			t.Fatal(err)
		}
		src := workload.AsSource(workload.MustNew("alpha1", 1.0/16, tc.seed))
		served := 0
		for !e.Dead() && served < 100000 {
			if err := e.Err(); err != nil {
				t.Fatalf("seed %d: Err = %v before any shard died", tc.seed, err)
			}
			served += e.RunSource(src, 1000)
		}
		lowest := -1
		for i := e.Shards() - 1; i >= 0; i-- {
			var want error
			if tc.dead[i] {
				want, lowest = hier.ErrFlashDead, i
			}
			if err := e.Shard(i).Err(); err != want {
				t.Fatalf("seed %d: shard %d Err = %v, want %v", tc.seed, i, err, want)
			}
		}
		err = e.Err()
		if !errors.Is(err, hier.ErrFlashDead) || !strings.HasPrefix(err.Error(), fmt.Sprintf("shard %d: ", lowest)) {
			t.Fatalf("seed %d: Err = %v, want shard %d's ErrFlashDead", tc.seed, err, lowest)
		}
		before := e.Stats()
		served += e.RunSource(src, 1000)
		if err := e.Err(); !errors.Is(err, hier.ErrFlashDead) {
			t.Fatalf("seed %d: Err = %v after more requests, want ErrFlashDead (sticky)", tc.seed, err)
		}
		after := e.Stats()
		if after.Requests < int64(served) || after.ReadPages+after.WritePages <= before.ReadPages+before.WritePages {
			t.Fatalf("seed %d: %d requests served of %d, %d pages after the death", tc.seed, after.Requests, served,
				after.ReadPages+after.WritePages-before.ReadPages-before.WritePages)
		}
	}
}

// TestShardIndependence: every shard must own a disjoint LBA slice, so
// shard-level device activity sums to the global total without double
// counting (each shard has its own NAND device and FBST).
func TestShardIndependence(t *testing.T) {
	const shards = 4
	e := runSource(t, shards, shards)
	var reads int64
	for i := 0; i < e.Shards(); i++ {
		reads += e.Shard(i).Stats().DiskReads
	}
	if got := e.Stats().DiskReads; got != reads {
		t.Fatalf("merged DiskReads %d != per-shard sum %d", got, reads)
	}
	var valid int64
	for i := 0; i < e.Shards(); i++ {
		valid += e.Shard(i).Flash().ValidPages()
	}
	if got := e.ValidPages(); got != valid {
		t.Fatalf("merged ValidPages %d != per-shard sum %d", got, valid)
	}
}

package engine

import (
	"fmt"
	"reflect"
	"testing"

	"flashdc/internal/core"
	"flashdc/internal/hier"
	"flashdc/internal/policy"
	"flashdc/internal/sched"
	"flashdc/internal/trace"
	"flashdc/internal/wear"
)

// schedTestConfig is testConfig with a non-default NAND scheduler
// geometry on the Flash tier.
func schedTestConfig(channels, banks, wbuf int) hier.Config {
	cfg := testConfig()
	fc := core.DefaultConfig(cfg.FlashBytes)
	fc.Sched = sched.Config{Channels: channels, Banks: banks, WriteBufPages: wbuf}
	cfg.Flash = fc
	return cfg
}

// schedSnapshot extends the standard run snapshot with the scheduler
// counters, so the golden comparisons pin contention accounting too.
type schedSnapshot struct {
	snapshot
	Sched sched.Stats
}

func schedSnap(t *testing.T, e *Engine) schedSnapshot {
	t.Helper()
	return schedSnapshot{snapshot: snap(t, e), Sched: e.SchedStats()}
}

// runSchedBatched replays reqs through RunBatch in chunk-sized slices
// against a scheduler geometry.
func runSchedBatched(t *testing.T, cfg hier.Config, shards, workers, chunk int, reqs []trace.Request) *Engine {
	t.Helper()
	e, err := New(Config{Shards: shards, Workers: workers, Hier: cfg})
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(reqs); off += chunk {
		end := off + chunk
		if end > len(reqs) {
			end = len(reqs)
		}
		e.RunBatch(reqs[off:end])
	}
	e.Drain()
	return e
}

// TestChannelGoldenDeterminism is the device-parallelism golden test:
// at every channel count the merged report — stats, latency histogram,
// device activity AND scheduler counters — must be byte-identical
// across worker counts and batch splits. Parallel hardware changes
// what the simulator reports; it must never make the report depend on
// how the simulation was scheduled.
func TestChannelGoldenDeterminism(t *testing.T) {
	reqs := testStream(t, testRequests)
	const shards = 4
	for _, channels := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("channels=%d", channels), func(t *testing.T) {
			cfg := schedTestConfig(channels, 2, 8)
			base := schedSnap(t, runSchedBatched(t, cfg, shards, 1, len(reqs), reqs))
			for _, workers := range []int{2, shards} {
				e := runSchedBatched(t, cfg, shards, workers, len(reqs), reqs)
				if got := schedSnap(t, e); !reflect.DeepEqual(got, base) {
					t.Fatalf("workers=%d diverged from workers=1:\n got %+v\nwant %+v", workers, got, base)
				}
			}
			for _, chunk := range []int{7, trace.DefaultBatch} {
				e := runSchedBatched(t, cfg, shards, 0, chunk, reqs)
				if got := schedSnap(t, e); !reflect.DeepEqual(got, base) {
					t.Fatalf("chunk=%d diverged from whole-stream replay:\n got %+v\nwant %+v", chunk, got, base)
				}
			}
		})
	}
}

// TestChannelsChangeTimingNotSemantics pins the scheduler's layering
// contract: geometry owns device *time* only, so any channel/bank/
// write-buffer configuration must reproduce the serial run's cache
// decisions exactly — same hits, misses, GC activity, wear and device
// state — while only latency accounting may move.
func TestChannelsChangeTimingNotSemantics(t *testing.T) {
	reqs := testStream(t, testRequests)
	const shards = 4
	serial := runSchedBatched(t, schedTestConfig(1, 1, 0), shards, 0, len(reqs), reqs)
	for _, geo := range []struct{ channels, banks, wbuf int }{
		{2, 1, 0}, {4, 4, 0}, {8, 2, 16},
	} {
		cfg := schedTestConfig(geo.channels, geo.banks, geo.wbuf)
		e := runSchedBatched(t, cfg, shards, 0, len(reqs), reqs)

		ss, es := serial.Stats(), e.Stats()
		ss.TotalLatency, es.TotalLatency = 0, 0 // timing is allowed to move
		if ss != es {
			t.Fatalf("%+v changed hierarchy semantics:\n got %+v\nwant %+v", geo, es, ss)
		}
		if got, want := e.FlashStats(), serial.FlashStats(); got != want {
			t.Fatalf("%+v changed cache behaviour:\n got %+v\nwant %+v", geo, got, want)
		}
		if got, want := e.DeviceStats(), serial.DeviceStats(); got != want {
			t.Fatalf("%+v changed device activity:\n got %+v\nwant %+v", geo, got, want)
		}
		gg, gw := e.Global(), serial.Global()
		gg.HitLatencyTotal, gw.HitLatencyTotal = 0, 0 // latency accumulators may move
		if gg != gw {
			t.Fatalf("%+v changed the global status table:\n got %+v\nwant %+v", geo, gg, gw)
		}
		if got, want := e.ValidPages(), serial.ValidPages(); got != want {
			t.Fatalf("%+v changed cached pages: got %d want %d", geo, got, want)
		}
	}
}

// TestSerialSchedMatchesDefault: an explicitly serial scheduler config
// (1 channel, 1 bank, no buffer) is the *same simulation* as the
// default config — the geometry plumbing must be invisible at 1×1.
func TestSerialSchedMatchesDefault(t *testing.T) {
	reqs := testStream(t, testRequests)
	def := snap(t, runSchedBatched(t, testConfig(), 4, 0, len(reqs), reqs))
	ser := snap(t, runSchedBatched(t, schedTestConfig(1, 1, 0), 4, 0, len(reqs), reqs))
	if !reflect.DeepEqual(def, ser) {
		t.Fatalf("explicit 1x1 geometry diverged from default config:\n got %+v\nwant %+v", ser, def)
	}
}

// TestSchedCheckpointRejected: checkpointing is defined only for the
// serial geometry; a non-default scheduler must refuse rather than
// silently drop in-flight channel/bank/buffer state.
func TestSchedCheckpointRejected(t *testing.T) {
	e, err := New(Config{Shards: 1, Hier: schedTestConfig(4, 2, 8)})
	if err != nil {
		t.Fatal(err)
	}
	e.RunBatch(testStream(t, 100))
	if _, err := e.Checkpoint("fp", 100); err == nil {
		t.Fatal("Checkpoint accepted a non-default scheduler geometry")
	}
}

// feedbackTestConfig is schedTestConfig with every scheduler-feedback
// path live on the Flash tier: contention-aware GC, admission
// throttling against the write buffer, and scrub deferral, which the
// parallel geometry turns on for the active error-process scrubber.
func feedbackTestConfig(channels int) hier.Config {
	cfg := schedTestConfig(channels, 2, 8)
	fc := cfg.Flash
	fc.Policies = policy.Set{GC: policy.GCContentionAware, Admit: policy.AdmitThrottle}
	fc.ScrubEvery = 512
	fc.Retention = wear.RetentionParams{Accel: 1e8}
	fc.Disturb = wear.DisturbParams{ReadsPerBit: 50}
	fc.RefreshThreshold = 0.75
	cfg.Flash = fc
	return cfg
}

// TestFeedbackGoldenDeterminism: the occupancy feedback loop reads
// scheduler state (bank idle times, backlog, buffer fill) at decision
// time, so it is the easiest place for worker scheduling to leak into
// simulation results. At each channel count the merged report with
// every feedback path live must stay byte-identical across worker
// counts and batch splits.
func TestFeedbackGoldenDeterminism(t *testing.T) {
	reqs := testStream(t, testRequests)
	const shards = 4
	for _, channels := range []int{2, 8} {
		t.Run(fmt.Sprintf("channels=%d", channels), func(t *testing.T) {
			cfg := feedbackTestConfig(channels)
			base := schedSnap(t, runSchedBatched(t, cfg, shards, 1, len(reqs), reqs))
			for _, workers := range []int{2, shards} {
				e := runSchedBatched(t, cfg, shards, workers, len(reqs), reqs)
				if got := schedSnap(t, e); !reflect.DeepEqual(got, base) {
					t.Fatalf("workers=%d diverged from workers=1:\n got %+v\nwant %+v", workers, got, base)
				}
			}
			for _, chunk := range []int{7, trace.DefaultBatch} {
				e := runSchedBatched(t, cfg, shards, 0, chunk, reqs)
				if got := schedSnap(t, e); !reflect.DeepEqual(got, base) {
					t.Fatalf("chunk=%d diverged from whole-stream replay:\n got %+v\nwant %+v", chunk, got, base)
				}
			}
		})
	}
}

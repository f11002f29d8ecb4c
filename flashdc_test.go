package flashdc

import (
	"bytes"
	"testing"
)

// TestPublicAPICacheRoundTrip exercises the re-exported cache API end
// to end.
func TestPublicAPICacheRoundTrip(t *testing.T) {
	cfg := DefaultCacheConfig(8 << 20)
	cfg.Seed = 1
	c := NewCache(cfg)
	if out := c.Read(42); out.Hit {
		t.Fatal("cold hit")
	}
	c.Insert(42)
	if out := c.Read(42); !out.Hit {
		t.Fatal("miss after insert")
	}
	c.Write(43)
	if !c.Contains(43) {
		t.Fatal("write not cached")
	}
}

// TestPublicAPIHierarchy drives a small system with a catalog
// workload.
func TestPublicAPIHierarchy(t *testing.T) {
	e, err := NewEngine(EngineConfig{Shards: 1, Hier: SystemConfig{DRAMBytes: 1 << 20, FlashBytes: 16 << 20, Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewWorkload("dbt2", 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	if n := e.RunSource(WorkloadSource(g), 20000); n != 20000 {
		t.Fatalf("RunSource consumed %d requests, want 20000", n)
	}
	st := e.Stats()
	if st.Requests != 20000 || st.PDCHits == 0 || st.FlashHits == 0 {
		t.Fatalf("hierarchy stats %+v", st)
	}
	bw := DefaultServer().Bandwidth(st.AvgLatency())
	if bw <= 0 {
		t.Fatal("no bandwidth")
	}
}

// TestPublicAPIExperiments runs one paper artifact through the
// re-exported entry point and checks an unknown ID is rejected.
func TestPublicAPIExperiments(t *testing.T) {
	tab, err := RunExperiment("fig6a", ExperimentOptions{Seed: 1, Scale: 1.0 / 128})
	if err != nil || len(tab.Rows) == 0 {
		t.Fatalf("fig6a: %v", err)
	}
	if _, err := RunExperiment("nope", ExperimentOptions{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestDurationUnits sanity-checks re-exported units.
func TestDurationUnits(t *testing.T) {
	if Second != 1000*Millisecond || Millisecond != 1000*Microsecond || Microsecond != 1000*Nanosecond {
		t.Fatal("unit ladder broken")
	}
	var d Duration = 3 * Millisecond
	if d.Seconds() != 0.003 {
		t.Fatal("Seconds conversion broken")
	}
}

// TestOpConstants checks the request direction re-exports.
func TestOpConstants(t *testing.T) {
	r := Request{Op: OpWrite, LBA: 9, Pages: 2}
	if r.Op.String() != "W" {
		t.Fatal("op re-export broken")
	}
	n := 0
	r.Expand(func(int64) { n++ })
	if n != 2 {
		t.Fatal("Expand broken")
	}
	_ = OpRead
}

// TestPublicAPIPersistence round-trips cache metadata through the
// re-exported entry points.
func TestPublicAPIPersistence(t *testing.T) {
	cfg := DefaultCacheConfig(8 << 20)
	cfg.Seed = 5
	c := NewCache(cfg)
	c.Insert(7)
	var buf bytes.Buffer
	if err := c.SaveMetadata(&buf); err != nil {
		t.Fatal(err)
	}
	restored, rep, err := OpenCache(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ColdStart {
		t.Fatal("clean image reported a cold start")
	}
	if !restored.Contains(7) {
		t.Fatal("restored cache lost the page")
	}
}

// TestPublicAPIOpenCacheRecovery exercises the crash-tolerant path and
// the observer option of OpenCache.
func TestPublicAPIOpenCacheRecovery(t *testing.T) {
	cfg := DefaultCacheConfig(8 << 20)
	cfg.Seed = 5
	garbage := bytes.NewBufferString("not a metadata image")
	c, rep, err := OpenCache(cfg, garbage, WithRecovery())
	if err != nil {
		t.Fatalf("WithRecovery must not fail: %v", err)
	}
	if !rep.ColdStart || rep.Err == nil {
		t.Fatalf("want cold-start report with cause, got %+v", rep)
	}
	if c == nil || c.Dead() {
		t.Fatal("recovered cache unusable")
	}

	obs := NewObserver(ObsOptions{Metrics: true, Trace: true})
	fresh, _, err := OpenCache(cfg, nil, WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	fresh.Insert(7)
	if evs := obs.Trace.Events(); len(evs) == 0 || evs[0].Kind != "open" {
		t.Fatalf("want an open event first, got %v", evs)
	}
}

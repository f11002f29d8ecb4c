package experiments

import (
	"testing"

	"flashdc/internal/core"
	"flashdc/internal/fault"
	"flashdc/internal/sim"
	"flashdc/internal/trace"
)

func replayCache() *core.Cache {
	cfg := core.DefaultConfig(8 << 20)
	cfg.Seed = 1
	return core.New(cfg)
}

// TestFlashAccessWriteThenRead: a written page is cached, so reading
// it back hits.
func TestFlashAccessWriteThenRead(t *testing.T) {
	c := replayCache()
	if lat, hit := flashAccess(c, trace.OpWrite, 7); hit || lat <= 0 {
		t.Fatalf("write: latency %v hit %v, want a positive write cost and no hit", lat, hit)
	}
	if lat, hit := flashAccess(c, trace.OpRead, 7); !hit || lat <= 0 {
		t.Fatalf("read after write: latency %v hit %v, want a hit with a positive latency", lat, hit)
	}
}

// TestFlashAccessReadMissFills: a read miss costs exactly what Insert
// charges on an identical cache, and the filled page then hits.
func TestFlashAccessReadMissFills(t *testing.T) {
	c, twin := replayCache(), replayCache()
	lat, hit := flashAccess(c, trace.OpRead, 9)
	if hit {
		t.Fatal("read of an empty cache hit")
	}
	if twin.Read(9).Hit {
		t.Fatal("twin cache hit")
	}
	if fill := twin.Insert(9); lat != fill || fill <= 0 {
		t.Fatalf("miss latency %v, want the positive fill cost %v", lat, fill)
	}
	if lat, hit := flashAccess(c, trace.OpRead, 9); !hit || lat <= 0 {
		t.Fatalf("read after fill: latency %v hit %v, want a hit with a positive latency", lat, hit)
	}
}

// TestReplayFlashPages: the page callback sees every page of every
// request with its request index, op and outcome.
func TestReplayFlashPages(t *testing.T) {
	reqs := []trace.Request{
		{Op: trace.OpWrite, LBA: 0, Pages: 2},
		{Op: trace.OpRead, LBA: 0, Pages: 2},
		{Op: trace.OpRead, LBA: 100, Pages: 1},
	}
	type page struct {
		i   int
		op  trace.Op
		hit bool
	}
	want := []page{
		{0, trace.OpWrite, false}, {0, trace.OpWrite, false},
		{1, trace.OpRead, true}, {1, trace.OpRead, true},
		{2, trace.OpRead, false},
	}
	next := 0
	src := streamFunc(func() trace.Request { next++; return reqs[next-1] })
	var got []page
	replayFlash(replayCache(), src, len(reqs), func(i int, op trace.Op, _ sim.Duration, hit bool) {
		got = append(got, page{i, op, hit})
	})
	if len(got) != len(want) {
		t.Fatalf("saw %d pages, want %d: %v", len(got), len(want), got)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("page %d: got %+v, want %+v", k, got[k], want[k])
		}
	}
}

// TestReplayFlashStopsWhenDead: a cache whose blocks are all
// factory-bad is dead from birth, so replayFlash draws no request.
func TestReplayFlashStopsWhenDead(t *testing.T) {
	cfg := core.DefaultConfig(8 << 20)
	cfg.Seed = 1
	plan := &fault.Plan{Seed: 1}
	for b := 0; b < 32; b++ {
		plan.FactoryBadBlocks = append(plan.FactoryBadBlocks, b)
	}
	cfg.Faults = plan
	c := core.New(cfg)
	if !c.Dead() {
		t.Fatal("a cache with every block factory-bad is alive")
	}
	draws := 0
	src := streamFunc(func() trace.Request {
		draws++
		return trace.Request{Op: trace.OpRead, Pages: 1}
	})
	replayFlash(c, src, 100, func(int, trace.Op, sim.Duration, bool) { t.Fatal("page served by a dead cache") })
	if draws != 0 {
		t.Fatalf("drew %d requests from a dead cache's stream, want 0", draws)
	}
}

package experiments

import (
	"strconv"
	"testing"
)

// These tests assert, at the quick scale, the qualitative claims each
// paper figure makes — the reproduction's actual contract. They
// complement the smoke test, which only checks that tables render.

func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("%s row %d col %d: %q not numeric", tab.ID, row, col, tab.Rows[row][col])
	}
	return v
}

func TestFig1bShape(t *testing.T) {
	tab := MustRun("fig1b", QuickOptions())
	// Normalized overhead strictly increasing, explosive at the top.
	prev := 0.0
	for r := range tab.Rows {
		v := cell(t, tab, r, 2)
		if v < prev {
			t.Fatalf("GC overhead not monotone at row %d", r)
		}
		prev = v
	}
	if last := cell(t, tab, len(tab.Rows)-1, 2); last < 10 {
		t.Fatalf("95%% occupancy overhead only %.1fx the 30%% point; want a hockey stick", last)
	}
}

func TestFig4Shape(t *testing.T) {
	o := QuickOptions()
	o.Requests = 120000
	tab := MustRun("fig4", o)
	// The split cache must win at the larger sizes and the gap must
	// grow with cache size overall.
	n := len(tab.Rows)
	firstGap := cell(t, tab, 0, 3)
	lastGap := cell(t, tab, n-1, 3)
	if lastGap <= 0 {
		t.Fatalf("split does not win at the largest size: gap %.2fpp", lastGap)
	}
	if lastGap <= firstGap {
		t.Fatalf("gap does not grow with size: %.2f -> %.2f", firstGap, lastGap)
	}
	// Miss rates decline with size for both organisations.
	if cell(t, tab, n-1, 1) >= cell(t, tab, 0, 1) ||
		cell(t, tab, n-1, 2) >= cell(t, tab, 0, 2) {
		t.Fatal("miss rates do not decline with cache size")
	}
}

func TestFig6aShape(t *testing.T) {
	tab := MustRun("fig6a", QuickOptions())
	prev := 0.0
	for r := range tab.Rows {
		total := cell(t, tab, r, 4)
		if total <= prev {
			t.Fatalf("decode latency not increasing at row %d", r)
		}
		prev = total
		// Chien dominates syndrome at t >= 4.
		if tVal := cell(t, tab, r, 0); tVal >= 4 {
			if cell(t, tab, r, 2) <= cell(t, tab, r, 1) {
				t.Fatalf("Chien does not dominate at t=%v", tVal)
			}
		}
	}
	// Envelope: Figure 6(a) runs tens of us to <200us.
	if first := cell(t, tab, 0, 4); first < 20 || first > 100 {
		t.Fatalf("t=2 latency %vus out of envelope", first)
	}
	if last := cell(t, tab, len(tab.Rows)-1, 4); last > 250 {
		t.Fatalf("t=11 latency %vus out of envelope", last)
	}
}

func TestFig6bShape(t *testing.T) {
	tab := MustRun("fig6b", QuickOptions())
	// Row 0 is t=0: all spreads anchored at 1e5.
	for col := 1; col <= 4; col++ {
		if v := cell(t, tab, 0, col); v < 0.99e5 || v > 1.01e5 {
			t.Fatalf("t=0 tolerable cycles %v, want 1e5", v)
		}
	}
	// Monotone in t; larger spread always worse at t > 0.
	for r := 1; r < len(tab.Rows); r++ {
		for col := 1; col <= 4; col++ {
			if cell(t, tab, r, col) <= cell(t, tab, r-1, col) {
				t.Fatalf("column %d not monotone at row %d", col, r)
			}
		}
		for col := 2; col <= 4; col++ {
			if cell(t, tab, r, col) >= cell(t, tab, r, col-1) {
				t.Fatalf("spatial variation does not hurt at row %d col %d", r, col)
			}
		}
	}
}

func TestFig7Shape(t *testing.T) {
	o := QuickOptions()
	o.Requests = 60000
	tab := MustRun("fig7", o)
	// Latency must fall as die area grows, per workload.
	byWorkload := map[string][][]string{}
	for _, row := range tab.Rows {
		byWorkload[row[0]] = append(byWorkload[row[0]], row)
	}
	if len(byWorkload) != 2 {
		t.Fatalf("expected 2 workloads, got %d", len(byWorkload))
	}
	for name, rows := range byWorkload {
		for i := 1; i < len(rows); i++ {
			cur, _ := strconv.ParseFloat(rows[i][3], 64)
			prev, _ := strconv.ParseFloat(rows[i-1][3], 64)
			if cur > prev*1.001 {
				t.Fatalf("%s: latency rises with area at row %d", name, i)
			}
		}
	}
	// The partition is workload dependent (the reason for
	// programmability): at half the WSS, Financial2 uses far more SLC
	// than WebSearch1.
	fin := byWorkload["Financial2"]
	web := byWorkload["WebSearch1"]
	finSLC, _ := strconv.ParseFloat(fin[2][4], 64)
	webSLC, _ := strconv.ParseFloat(web[2][4], 64)
	if finSLC <= webSLC {
		t.Fatalf("SLC fractions not workload-dependent: Financial2 %v%% vs WebSearch1 %v%%", finSLC, webSLC)
	}
}

func TestFig9Shape(t *testing.T) {
	o := QuickOptions()
	o.Requests = 40000
	tab := MustRun("fig9", o)
	if len(tab.Rows) != 4 {
		t.Fatalf("fig9 rows = %d", len(tab.Rows))
	}
	for pair := 0; pair < 2; pair++ {
		base, hybrid := 2*pair, 2*pair+1
		// The hybrid draws less total power over the same interval...
		if cell(t, tab, hybrid, 7) >= cell(t, tab, base, 7) {
			t.Fatalf("pair %d: hybrid power not lower", pair)
		}
		// ...while maintaining (or improving) bandwidth.
		if cell(t, tab, hybrid, 8) < 0.9 {
			t.Fatalf("pair %d: hybrid bandwidth collapsed: %v", pair, cell(t, tab, hybrid, 8))
		}
		// Memory idle power halves or better (fewer DIMMs).
		if cell(t, tab, hybrid, 4) >= cell(t, tab, base, 4) {
			t.Fatalf("pair %d: DRAM idle power not reduced", pair)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	o := QuickOptions()
	o.Requests = 30000
	tab := MustRun("fig10", o)
	// Bandwidth degrades monotonically (within noise) and gracefully:
	// under 10% at the t=12 hardware limit.
	for _, col := range []int{1, 2} {
		prev := 1.1
		for r := range tab.Rows {
			v := cell(t, tab, r, col)
			if v > prev*1.02 {
				t.Fatalf("col %d: bandwidth rose at row %d", col, r)
			}
			prev = v
			if tVal := cell(t, tab, r, 0); tVal == 12 && v < 0.90 {
				t.Fatalf("col %d: degradation at t=12 exceeds 10%%: %v", col, v)
			}
		}
		if final := cell(t, tab, len(tab.Rows)-1, col); final > 0.99 {
			t.Fatalf("col %d: no degradation even at t=50 (%v)", col, final)
		}
	}
}

func TestFig11Shape(t *testing.T) {
	o := QuickOptions()
	o.Requests = 150000
	tab := MustRun("fig11", o)
	pct := map[string]float64{}
	for _, row := range tab.Rows {
		v, _ := strconv.ParseFloat(row[3], 64)
		pct[row[0]] = v // density share
	}
	// The paper's gradient: uniform almost all ECC; exponential
	// dominated by density; zipf monotone in alpha between them.
	if pct["uniform"] > 30 {
		t.Fatalf("uniform density share %v%%, want near zero", pct["uniform"])
	}
	if pct["exp1"] < 50 || pct["exp2"] < 50 {
		t.Fatalf("exponential density shares %v%% / %v%%, want dominant", pct["exp1"], pct["exp2"])
	}
	if !(pct["alpha1"] <= pct["alpha2"] && pct["alpha2"] <= pct["alpha3"]) {
		t.Fatalf("zipf density shares not monotone in alpha: %v %v %v",
			pct["alpha1"], pct["alpha2"], pct["alpha3"])
	}
	if pct["uniform"] >= pct["exp1"] {
		t.Fatal("uniform should use less density than exponential")
	}
}

func TestFig12Shape(t *testing.T) {
	o := QuickOptions()
	o.Requests = 2_000_000
	tab := MustRun("fig12", o)
	for _, row := range tab.Rows {
		gain, _ := strconv.ParseFloat(row[5], 64)
		if gain <= 1.5 {
			t.Fatalf("%s: programmable controller gain only %vx", row[0], gain)
		}
	}
}

func TestSSDvsCacheShape(t *testing.T) {
	tab := MustRun("ssd-vs-cache", QuickOptions())
	n := len(tab.Rows)
	// FTL write amplification grows with occupancy; the cache's GC
	// cost must not explode the same way.
	if cell(t, tab, n-1, 1) <= cell(t, tab, 0, 1) {
		t.Fatal("FTL write amplification does not grow with occupancy")
	}
	ftlGrowth := cell(t, tab, n-1, 2) / (cell(t, tab, 0, 2) + 1e-9)
	cacheGrowth := cell(t, tab, n-1, 3) / (cell(t, tab, 0, 3) + 1e-9)
	if ftlGrowth <= 2*cacheGrowth {
		t.Fatalf("FTL GC growth (%.1fx) should far exceed the cache's (%.1fx)",
			ftlGrowth, cacheGrowth)
	}
}

func TestAblateSplitShape(t *testing.T) {
	o := QuickOptions()
	o.Requests = 100000
	tab := MustRun("ablate-split", o)
	// The unified row (last) must be the worst configuration.
	n := len(tab.Rows)
	unified := cell(t, tab, n-1, 1)
	for r := 0; r < n-1; r++ {
		if cell(t, tab, r, 1) >= unified {
			t.Fatalf("split fraction %s not better than unified", tab.Rows[r][0])
		}
	}
}

func TestAblateWearShape(t *testing.T) {
	o := QuickOptions()
	o.Requests = 100000
	tab := MustRun("ablate-wear", o)
	// Aggressive threshold: swaps occur and the spread shrinks vs off.
	firstSwaps := cell(t, tab, 0, 1)
	firstSpread := cell(t, tab, 0, 4)
	offSpread := cell(t, tab, len(tab.Rows)-1, 4)
	if firstSwaps == 0 {
		t.Fatal("threshold 64 triggered no wear rotations")
	}
	if firstSpread >= offSpread {
		t.Fatalf("wear levelling did not narrow the spread: %v vs %v (off)", firstSpread, offSpread)
	}
}

func TestLifetimeLatencyShape(t *testing.T) {
	o := QuickOptions()
	o.Requests = 2_000_000
	tab := MustRun("lifetime-latency", o)
	if len(tab.Rows) < 3 {
		t.Fatalf("only %d life epochs observed", len(tab.Rows))
	}
	first := cell(t, tab, 0, 1)
	last := cell(t, tab, len(tab.Rows)-1, 1)
	// Graceful increase: latency grows with age but stays within the
	// Flash regime (no cliff to disk-class latencies).
	if last <= first {
		t.Fatalf("hit latency did not grow with age: %v -> %v", first, last)
	}
	if last > 1000 {
		t.Fatalf("hit latency cliffed to %vus", last)
	}
	// Reconfiguration events accumulate monotonically.
	prev := 0.0
	for r := range tab.Rows {
		e := cell(t, tab, r, 4) + cell(t, tab, r, 5)
		if e < prev {
			t.Fatalf("reconfig events decreased at epoch %d", r)
		}
		prev = e
	}
}

func TestAblateAreaShape(t *testing.T) {
	o := QuickOptions()
	o.Requests = 50000
	tab := MustRun("ablate-area", o)
	// Spending area on Flash must beat the all-DRAM split on latency
	// (and not collapse bandwidth) somewhere in the sweep. Memory
	// power also drops at realistic scales, but at the tiny quick
	// scale the Flash chip's activity power can mask the
	// few-milliwatt DRAM savings, so power is asserted only loosely.
	baseLat := cell(t, tab, 0, 3)
	basePower := cell(t, tab, 0, 4)
	improvedLat := false
	bestPower := basePower
	for r := 1; r < len(tab.Rows); r++ {
		if cell(t, tab, r, 3) < baseLat {
			improvedLat = true
		}
		if p := cell(t, tab, r, 4); p < bestPower {
			bestPower = p
		}
		if bw := cell(t, tab, r, 5); bw < 0.95 {
			t.Fatalf("flash split row %d collapsed bandwidth: %v", r, bw)
		}
	}
	if !improvedLat {
		t.Fatal("no Flash split beats all-DRAM latency")
	}
	if bestPower > 3*basePower {
		t.Fatalf("memory power exploded across the sweep: %v vs %v", bestPower, basePower)
	}
}

func TestAblateReadaheadShape(t *testing.T) {
	o := QuickOptions()
	o.Requests = 40000
	tab := MustRun("ablate-readahead", o)
	// Deeper readahead cuts average latency on the web workload.
	if off, deep := cell(t, tab, 0, 1), cell(t, tab, len(tab.Rows)-1, 1); deep >= off {
		t.Fatalf("readahead did not help: %v -> %v us", off, deep)
	}
	if cell(t, tab, 0, 3) != 0 {
		t.Fatal("readahead 0 prefetched pages")
	}
}

func TestLoadSweepShape(t *testing.T) {
	o := QuickOptions()
	o.Requests = 30000
	tab := MustRun("load-sweep", o)
	for r := range tab.Rows {
		if cell(t, tab, r, 2) >= cell(t, tab, r, 1) {
			t.Fatalf("flash system not cheaper at load row %d", r)
		}
	}
	// Absolute power decreases as load drops, for both systems.
	for r := 1; r < len(tab.Rows); r++ {
		if cell(t, tab, r, 1) >= cell(t, tab, r-1, 1) {
			t.Fatalf("dram-only power not load-proportional at row %d", r)
		}
	}
}

func TestAblateChannelsShape(t *testing.T) {
	o := QuickOptions()
	o.Requests = 5000
	tab := MustRun("ablate-channels", o)
	// Near-linear scaling: 8 channels at least 6x one channel.
	last := cell(t, tab, len(tab.Rows)-1, 3)
	if last < 6 {
		t.Fatalf("8-channel speedup only %.1fx", last)
	}
	prev := 0.0
	for r := range tab.Rows {
		s := cell(t, tab, r, 3)
		if s <= prev {
			t.Fatalf("speedup not monotone at row %d", r)
		}
		prev = s
	}
}

func TestGCContentionShape(t *testing.T) {
	o := QuickOptions()
	o.Requests = 60000
	tab := MustRun("gc-contention", o)
	off := cell(t, tab, 0, 1)
	on := cell(t, tab, 1, 1)
	if on <= off {
		t.Fatalf("contention modelling did not raise foreground latency: %v vs %v", on, off)
	}
	// GC activity itself is identical; only its visibility changes.
	if cell(t, tab, 0, 3) != cell(t, tab, 1, 3) {
		t.Fatal("GC runs differ between modes")
	}
}

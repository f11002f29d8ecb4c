package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of -compare. The rule is the one performance claims are
// judged by: a gain needs the change to win at least 9 in 10 of the
// paired runs and a median gap wider than the parent's own quartile
// spread; a metric whose spread exceeds its bound cannot be called
// unchanged.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// readResults reads the JSON lines -out appends.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// series gathers each (workload, metric) pair's values in file order.
func series(rs []result) map[[2]string][]float64 {
	out := map[[2]string][]float64{}
	for _, r := range rs {
		for name, v := range r.Metrics {
			k := [2]string{r.Workload, name}
			out[k] = append(out[k], v.Value)
		}
	}
	return out
}

// compareFiles prints one row per (workload, metric) found in both
// result files, pairing the i-th parent run with the i-th change run.
func compareFiles(w io.Writer, parentPath, changePath string) error {
	parent, err := readResults(parentPath)
	if err != nil {
		return err
	}
	change, err := readResults(changePath)
	if err != nil {
		return err
	}
	ps, cs := series(parent), series(change)
	fmt.Fprintf(w, "%-20s %-30s %-36s %-36s %5s  %s\n",
		"workload", "metric", "parent median [p25, p75]", "change median [p25, p75]", "wins", "verdict")
	rows := 0
	for _, s := range specs {
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				k := [2]string{s.Name, d.Name}
				p, c := ps[k], cs[k]
				if len(p) == 0 || len(c) == 0 {
					continue
				}
				v, wins, pairs := verdict(d, p, c)
				fmt.Fprintf(w, "%-20s %-30s %-36s %-36s %2d/%-2d  %s\n",
					s.Name, d.Name, summary(p), summary(c), wins, pairs, v)
				rows++
			}
		}
	}
	if rows == 0 {
		return fmt.Errorf("no (workload, metric) pair appears in both %s and %s", parentPath, changePath)
	}
	return nil
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.6g [%.6g, %.6g]", median(xs), q1, q3)
}

// verdict judges change against parent for metric d. It reports the
// verdict and how many of the paired runs the change won.
func verdict(d metricDef, parent, change []float64) (v string, wins, pairs int) {
	better := func(a, b float64) bool {
		if d.Better == "higher" {
			return a > b
		}
		return a < b
	}
	pairs = min(len(parent), len(change))
	losses := 0
	for i := 0; i < pairs; i++ {
		switch {
		case better(change[i], parent[i]):
			wins++
		case better(parent[i], change[i]):
			losses++
		}
	}
	pm, cm := median(parent), median(change)
	p1, p3 := quartiles(parent)
	gap := math.Abs(cm - pm)
	switch {
	case better(cm, pm) && wins*10 >= 9*pairs && gap > p3-p1:
		return improved, wins, pairs
	case d.Bound > 0 && better(pm, cm) && gap > d.Bound*math.Abs(pm):
		return regressed, wins, pairs
	case d.Bound == 0 && better(pm, cm) && losses*10 >= 9*pairs && gap > p3-p1:
		// A layer metric has no bound; it regresses by the mirror of
		// the gain rule.
		return regressed, wins, pairs
	case d.Bound > 0 && spreadOf(parent, change) > d.Bound && !allBetter(change, parent, better):
		return unresolved, wins, pairs
	}
	return unchanged, wins, pairs
}

// spreadOf is the wider of the two sides' quartile spreads, each as a
// share of its median.
func spreadOf(a, b []float64) float64 {
	rel := func(xs []float64) float64 {
		q1, q3 := quartiles(xs)
		m := math.Abs(median(xs))
		if m == 0 {
			return 0
		}
		return (q3 - q1) / m
	}
	return max(rel(a), rel(b))
}

// allBetter reports whether every change run beats every parent run.
func allBetter(change, parent []float64, better func(a, b float64) bool) bool {
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				return false
			}
		}
	}
	return true
}

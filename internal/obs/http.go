package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
)

// WritePrometheus renders a snapshot in the Prometheus text exposition
// format (version 0.0.4). Names are emitted in sorted order and
// histogram buckets as cumulative `le` series, so identical snapshots
// render to identical bytes.
func WritePrometheus(w io.Writer, s *Snapshot) error {
	if s == nil {
		_, err := fmt.Fprint(w, "# no snapshot taken yet\n")
		return err
	}
	v := s.view()
	for _, name := range sortedNames(v.Counters) {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, v.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedNames(v.Gauges) {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", name, name,
			strconv.FormatFloat(v.Gauges[name], 'g', -1, 64)); err != nil {
			return err
		}
	}
	for _, name := range sortedNames(v.Histograms) {
		h := v.Histograms[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
			return err
		}
		var cum int64
		for i, b := range h.Bounds {
			cum += h.Buckets[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, b, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
			name, h.Count, name, h.Sum, name, h.Count); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE sim_time_ns gauge\nsim_time_ns %d\n", s.T)
	return err
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Handler serves the live merged metrics of the given observers as
// Prometheus text exposition. It reads only copies of published
// snapshots (Observer.Live), never component state, so it is safe to
// serve while the simulation runs on other goroutines.
func Handler(observers func() []*Observer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var merged *Snapshot
		for _, o := range observers() {
			s := o.Live()
			if s == nil {
				continue
			}
			if merged == nil {
				merged = s
			} else {
				merged.Merge(*s)
			}
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, merged)
	})
}

// Package experiments regenerates every table and figure of the
// paper's evaluation. Each experiment is a function from Options to a
// Table (rows of the same series the paper plots); cmd/fdcbench prints
// them and the repository-level benchmarks time them.
//
// Simulation experiments run at a configurable Scale: capacities and
// workload footprints shrink together (the paper itself scaled its
// benchmarks, system memory, Flash and disk to fit simulation —
// section 6.1), so miss-rate and power *relationships* are preserved
// while runs stay tractable.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Options tunes an experiment run.
type Options struct {
	// Seed drives all randomness.
	Seed uint64
	// Scale multiplies capacities and footprints (1 = paper size); 0
	// picks 1/16. A non-zero scale lies in [MinScale, 1].
	Scale float64
	// Requests is the per-configuration request budget; 0 picks the
	// experiment's default.
	Requests int
}

// MinScale is the smallest scale every experiment can build its
// caches at: below it the smallest fixed-size cache (fault-sweep's
// 64MB) falls under core's 4-block floor.
const MinScale = 1.0 / 128

// QuickOptions is the test/bench scale.
func QuickOptions() Options { return Options{Seed: 1, Scale: MinScale} }

// normalized fills in the defaults of zero fields and rejects values
// outside their domain.
func (o Options) normalized() (Options, error) {
	if !(o.Scale >= 0 && o.Scale <= 1) {
		return o, fmt.Errorf("experiments: scale %v outside [0, 1]", o.Scale)
	}
	if o.Scale != 0 && o.Scale < MinScale {
		return o, fmt.Errorf("experiments: scale %v below the minimum %v", o.Scale, MinScale)
	}
	if o.Requests < 0 {
		return o, fmt.Errorf("experiments: request budget %d is negative", o.Requests)
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Scale == 0 {
		o.Scale = 1.0 / 16
	}
	return o, nil
}

// Table is one reproduced artifact: an identifier tying it to the
// paper, headers, and formatted rows.
type Table struct {
	// ID is the paper artifact ("fig4", "table2", ...).
	ID string
	// Title describes the artifact.
	Title string
	// Note records scale, substitutions and reading hints.
	Note string
	// Header labels the columns.
	Header []string
	// Rows hold formatted cells.
	Rows [][]string
}

// AddRow appends a formatted row; values are rendered with %v, and
// float64 with 4 significant decimals.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	a := v
	if a < 0 {
		a = -a
	}
	switch {
	case a == 0:
		return "0"
	case a >= 1e6 || a < 1e-3:
		return fmt.Sprintf("%.3e", v)
	case a >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "   %s\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Runner produces one artifact.
type Runner func(Options) *Table

// registry maps experiment IDs to runners, populated by init
// functions in the per-figure files.
var registry = map[string]Runner{}

func register(id string, r Runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = r
}

// IDs returns every registered experiment identifier, sorted with
// tables first then figures in paper order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return orderKey(out[i]) < orderKey(out[j]) })
	return out
}

func orderKey(id string) string {
	// tables sort before figures, then lexicographic with numeric
	// padding (fig4 before fig10).
	var prefix string
	var num int
	if strings.HasPrefix(id, "table") {
		prefix = "0"
		fmt.Sscanf(id, "table%d", &num)
	} else if strings.HasPrefix(id, "fig") {
		prefix = "1"
		fmt.Sscanf(id, "fig%d", &num)
	} else {
		prefix = "2"
	}
	return fmt.Sprintf("%s%04d%s", prefix, num, id)
}

// Run executes one experiment by ID. It fails for an unknown ID or
// options outside their domain.
func Run(id string, o Options) (*Table, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %s)",
			id, strings.Join(IDs(), ", "))
	}
	o, err := o.normalized()
	if err != nil {
		return nil, err
	}
	return r(o), nil
}

// MustRun is Run for known-good IDs.
func MustRun(id string, o Options) *Table {
	t, err := Run(id, o)
	if err != nil {
		panic(err)
	}
	return t
}

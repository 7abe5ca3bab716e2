// Package experiments regenerates every table and figure of the DATA-WA
// paper's evaluation (Section V) on the synthetic Yueche- and DiDi-like
// workloads. Each experiment is registered under an id (table2, fig5 …
// fig11, ablation-*) and produces a Table whose rows mirror the series the
// paper plots. Figs. 7–11 run every method of the registry in
// internal/method; where the harness departs from the library's settings is
// listed in docs/PLANNERS.md ("The experiment harness").
//
// Absolute wall-clock numbers depend on the host; the comparison with the
// paper is about shapes: who wins, monotonicity, and crossovers. The Scale
// parameter trades fidelity for runtime so the whole suite also runs inside
// `go test -bench`.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Scale controls experiment fidelity. Start from one of the three presets
// below — tests (Quick), the CLI default (Standard), full paper-scale runs
// (Full) — and adjust SweepPoints or Parallelism: every other field must be
// positive.
type Scale struct {
	// Factor scales workload cardinalities and durations (0 < f ≤ 1).
	Factor float64
	// Step is the simulator step in seconds.
	Step float64
	// Epochs trains the demand predictors.
	Epochs int
	// Window is the history length (vectors) fed to predictors.
	Window int
	// TVFEpochs trains the task value function.
	TVFEpochs int
	// MaxNodes caps exact search effort per planning call.
	MaxNodes int
	// SweepPoints limits how many values of each swept parameter run
	// (0 = all five, matching the paper).
	SweepPoints int
	// Parallelism bounds the planner's per-instant fan-out across RTC
	// components (0 = up to one goroutine per CPU, 1 = serial). Assignment
	// results are identical at every setting; only CPU time moves.
	Parallelism int
}

// Quick is the test/bench preset: every experiment finishes in seconds.
var Quick = Scale{
	Factor: 0.04, Step: 2, Epochs: 4, Window: 6,
	TVFEpochs: 10, MaxNodes: 3000, SweepPoints: 2,
}

// Standard is the CLI default: minutes per figure, clear separation.
var Standard = Scale{
	Factor: 0.15, Step: 2, Epochs: 12, Window: 8,
	TVFEpochs: 25, MaxNodes: 8000, SweepPoints: 0,
}

// Full approximates paper scale; expect hours for the full suite.
var Full = Scale{
	Factor: 1, Step: 1, Epochs: 25, Window: 10,
	TVFEpochs: 40, MaxNodes: 20000, SweepPoints: 0,
}

// sweep trims a parameter-value list to the configured number of points,
// keeping the first and last so ranges stay representative.
func (s Scale) sweep(values []float64) []float64 {
	if s.SweepPoints <= 0 || s.SweepPoints >= len(values) {
		return values
	}
	if s.SweepPoints == 1 {
		return values[:1]
	}
	out := []float64{values[0]}
	for i := 1; i < s.SweepPoints-1; i++ {
		out = append(out, values[i*len(values)/s.SweepPoints])
	}
	return append(out, values[len(values)-1])
}

// Table is a printable experiment result. The JSON tags are the wire names
// used by datawa-bench's -json trajectory output.
type Table struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// Add appends one formatted row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders an aligned text table.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Header, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// Experiment is one registered reproduction target.
type Experiment struct {
	ID    string
	Title string
	Run   func(s Scale) []*Table
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every registered experiment sorted by id.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

func fmtF(v float64) string { return fmt.Sprintf("%.3f", v) }

// Package benchtest is the experiment harness: one runnable experiment per
// figure and falsifiable claim of the paper, as indexed in DESIGN.md
// (E01–E33 without E31, and the ablations A01–A02). Each experiment
// builds a cluster with the public wls façade, drives a workload, and
// emits a table whose *shape* (who wins, by what rough factor, where the
// crossover falls) is the reproduction target.
//
// BenchmarkExperiments (bench_test.go at the repository root) runs each
// experiment as a sub-benchmark named by its id. The package is test code:
// no binary imports it.
package benchtest

import (
	"fmt"
	"sort"
	"strings"

	"wls/internal/gossip"
	"wls/internal/vclock"
)

// wall is the clock experiments measure with. Benchmarks report real
// elapsed time, so this is the system wall clock — but routed through
// vclock.Clock, which keeps the package on the one sanctioned time
// abstraction (the walltime lint rule certifies it) and lets a simulation
// swap in a virtual clock.
var wall vclock.Clock = vclock.System

// Table is one experiment's output.
type Table struct {
	// ID is the experiment id (e.g. "E02").
	ID string
	// Title describes the experiment.
	Title string
	// Source cites the paper figure/section and claim.
	Source string
	// Columns are the column headers.
	Columns []string
	// Rows are the data rows.
	Rows [][]string
	// Notes carries the interpretation (which shape to look for).
	Notes string
}

// AddRow appends a row of stringable cells.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, 0, len(cells))
	for _, c := range cells {
		row = append(row, fmt.Sprint(c))
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table for terminal output.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "source: %s\n", t.Source)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "  %-*s", widths[i], c)
			} else {
				fmt.Fprintf(&b, "  %s", c)
			}
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}

// Experiment is one registered experiment.
type Experiment struct {
	ID     string
	Title  string
	Source string
	Run    func() *Table
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	registry[e.ID] = e
}

// All returns every experiment, sorted by id.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	e, ok := registry[strings.ToUpper(id)]
	return e, ok
}

// ratio formats a/b with two decimals ("inf" when b is 0).
func ratio(a, b float64) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2f", a/b)
}

// newBusOn builds an in-memory announcement bus on the given clock.
func newBusOn(clk vclock.Clock) *gossip.InMemory { return gossip.NewInMemory(clk, 1) }

// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment is registered under the paper's artifact id
// (fig13, tab4, ...) and prints the same rows/series the paper reports, so
// `prete-sim -exp fig13` or the corresponding bench target reproduces the
// artifact. EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"prete/internal/core"
	"prete/internal/obs"
	"prete/internal/te"
)

// Options tunes experiment execution.
type Options struct {
	Seed uint64
	// Quick trades fidelity for speed (fewer scenarios, smaller sweeps,
	// shorter training) — what the benchmarks use so `go test -bench` stays
	// tractable; the CLI default is the full configuration.
	Quick bool
	// Parallelism bounds the worker count of the parallel sweeps (the
	// (scheme, scale) evaluation matrices and the per-scenario fan-out
	// inside each evaluation): <= 0 selects runtime.GOMAXPROCS(0), 1
	// forces the serial path. Output is byte-identical at every setting —
	// cells are computed into an index-addressed grid and printed in row
	// order (see internal/par).
	Parallelism int
	// Budget caps the deterministic work units of every TE solve an
	// experiment runs (core.Optimizer.BudgetUnits); 0 is unlimited — the
	// default, so golden outputs are unchanged. Budgeted solves may install
	// truncated or heuristic-fallback plans, which is the point of the
	// `deadline` sweep.
	Budget int64
	// Metrics, when non-nil, collects the observability series of every
	// layer an experiment exercises (core.benders.*, sim.*, telemetry.*).
	// Write-only: experiment output is byte-identical with Metrics set or
	// nil.
	Metrics *obs.Registry
	// Classes overrides the SLO tier spec of class-aware experiments
	// (sloclass); nil uses te.DefaultClassSpec(). Classless experiments
	// ignore it.
	Classes *te.ClassSpec
}

// budgeted puts o under opts' work budget and metrics registry and returns
// it: every experiment that plans or solves directly configures its
// optimizer here, so -budget and -metrics reach each of its solves.
func budgeted(o *core.Optimizer, opts Options) *core.Optimizer {
	o.BudgetUnits = opts.Budget
	o.Metrics = opts.Metrics
	return o
}

// Func runs one experiment, writing its table/series to w.
type Func func(w io.Writer, opts Options) error

// registry maps artifact ids to experiments.
var registry = map[string]struct {
	fn    Func
	title string
}{}

func register(id, title string, fn Func) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = struct {
		fn    Func
		title string
	}{fn, title}
}

// IDs returns all registered experiment ids, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Title returns an experiment's human-readable title.
func Title(id string) string { return registry[id].title }

// Run executes the experiment with the given id.
func Run(id string, w io.Writer, opts Options) error {
	e, ok := registry[id]
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, IDs())
	}
	fmt.Fprintf(w, "== %s: %s ==\n", id, e.title)
	return e.fn(w, opts)
}

// header prints a column header row.
func header(w io.Writer, cols ...string) {
	for i, c := range cols {
		if i > 0 {
			fmt.Fprint(w, "\t")
		}
		fmt.Fprint(w, c)
	}
	fmt.Fprintln(w)
}

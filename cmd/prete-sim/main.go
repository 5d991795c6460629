// Command prete-sim runs the paper's evaluation experiments. Every table
// and figure of the paper maps to an experiment id (see DESIGN.md §4):
//
//	prete-sim -list
//	prete-sim -exp fig13
//	prete-sim -exp tab5 -seed 7
//	prete-sim -all -quick
//	prete-sim -exp fig8 -quick -metrics     # JSON metrics snapshot on stderr-free stdout
//	prete-sim -exp fig13 -debug-addr :6060  # live /metrics + pprof while running
package main

import (
	"flag"
	"fmt"
	"os"

	"prete/internal/core"
	"prete/internal/experiments"
	"prete/internal/obs"
	"prete/internal/par"
	"prete/internal/te"
)

func main() {
	var (
		exp       = flag.String("exp", "", "experiment id to run (see -list)")
		seed      = flag.Uint64("seed", 2025, "random seed")
		quick     = flag.Bool("quick", false, "reduced fidelity for fast runs")
		list      = flag.Bool("list", false, "list available experiments")
		all       = flag.Bool("all", false, "run every experiment")
		par_      = flag.Int("p", 0, "worker parallelism (0 = GOMAXPROCS, 1 = serial; output is identical)")
		budget    = flag.String("budget", "", "per-solve compute budget in deterministic work units, e.g. -budget 5000 (0/empty = unlimited)")
		metrics   = flag.Bool("metrics", false, "print a JSON metrics snapshot after the run")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /debug/vars, and /debug/pprof on this address while running")
		classes   = flag.String("classes", "", "SLO tier spec for class-aware experiments, 'name:share:weight[:policy],...' or 'default' (empty = the built-in default spec)")
	)
	flag.Parse()

	classSpec, err := te.ParseClassSpec(*classes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "prete-sim: -classes: %v\n", err)
		os.Exit(2)
	}

	units, timeout, err := core.ParseBudget(*budget)
	if err != nil {
		fmt.Fprintf(os.Stderr, "prete-sim: %v\n", err)
		os.Exit(2)
	}
	if timeout > 0 {
		// Experiments promise seed-reproducible output; a wall-clock budget
		// would break that, so only the deterministic units form is allowed.
		fmt.Fprintln(os.Stderr, "prete-sim: -budget UNITS only (wall-clock budgets are nondeterministic; use prete-testbed for those)")
		os.Exit(2)
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Printf("%-8s %s\n", id, experiments.Title(id))
		}
		return
	}
	// Experiment output is byte-identical with metrics on or off: the
	// registry is a write-only side channel (see internal/obs).
	var reg *obs.Registry
	if *metrics || *debugAddr != "" {
		reg = obs.NewRegistry()
		reg.PublishExpvar("prete")
		par.SetMetrics(reg)
	}
	if *debugAddr != "" {
		addr, closeFn, err := obs.ServeDebug(*debugAddr, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "prete-sim: debug server: %v\n", err)
			os.Exit(1)
		}
		defer closeFn()
		fmt.Fprintf(os.Stderr, "prete-sim: debug server on http://%s/metrics\n", addr)
	}
	opts := experiments.Options{Seed: *seed, Quick: *quick, Parallelism: *par_, Budget: units, Metrics: reg, Classes: classSpec}
	failed := false
	switch {
	case *all:
		// Run every experiment, so one failure hides none after it; the
		// exit status reports them all.
		for _, id := range experiments.IDs() {
			if err := experiments.Run(id, os.Stdout, opts); err != nil {
				fmt.Fprintf(os.Stderr, "prete-sim: %s: %v\n", id, err)
				failed = true
			}
			fmt.Println()
		}
	case *exp != "":
		if err := experiments.Run(*exp, os.Stdout, opts); err != nil {
			fmt.Fprintf(os.Stderr, "prete-sim: %v\n", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "prete-sim: pass -exp <id>, -all, or -list")
		os.Exit(2)
	}
	if *metrics {
		fmt.Println("== metrics ==")
		if err := reg.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "prete-sim: metrics: %v\n", err)
			os.Exit(1)
		}
	}
	if failed {
		os.Exit(1)
	}
}

package main

import (
	"fmt"
	"time"

	"prete/internal/obs"
	"prete/internal/sim"
)

// table is one offline availability table: every scheme of the workload
// evaluated on a fresh Evaluator (so no plan cache carries over from the
// previous table).
type table struct {
	dur     time.Duration
	schemeS map[string]float64 // wall seconds per scheme
	avail   map[string]sim.Availability
}

// evalTable runs one table at the given parallelism (<= 0: GOMAXPROCS).
func evalTable(in *inputs, env *sim.Env, parallelism int, reg *obs.Registry, rec *recorder) (*table, error) {
	cfg := in.simCfg
	cfg.Parallelism = parallelism
	cfg.Metrics = reg
	out := &table{schemeS: map[string]float64{}, avail: map[string]sim.Availability{}}
	start := time.Now()
	root := rec.begin("harness", "table")
	ev := sim.NewEvaluator(env, cfg)
	for _, scheme := range in.spec.schemes {
		t0 := time.Now()
		sp := rec.begin("sim", "sim.evaluate."+scheme)
		a, err := ev.Evaluate(scheme, in.spec.demandScale)
		rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", scheme, err)
		}
		out.schemeS[scheme] = time.Since(t0).Seconds()
		out.avail[scheme] = a
	}
	rec.end(root)
	out.dur = time.Since(start)
	rec.nextOp()
	return out, nil
}

// checkTable verifies a table's availabilities: sane, bit-identical to the
// serial table (the evaluator's determinism contract at every parallelism
// level), and matching the committed reference.
func checkTable(in *inputs, t, serial *table, ref *reference) []error {
	var errs []error
	for _, scheme := range in.spec.schemes {
		a := t.avail[scheme]
		if !(a.Min >= 0 && a.Min <= a.Mean && a.Mean <= 1) {
			errs = append(errs, fmt.Errorf("%s: implausible availability min %v mean %v", scheme, a.Min, a.Mean))
		}
		b := serial.avail[scheme]
		if len(a.PerFlow) != len(b.PerFlow) {
			errs = append(errs, fmt.Errorf("%s: %d flows, serial table has %d", scheme, len(a.PerFlow), len(b.PerFlow)))
			continue
		}
		for f := range a.PerFlow {
			if a.PerFlow[f] != b.PerFlow[f] {
				errs = append(errs, fmt.Errorf("%s: flow %d availability %v differs from the serial table's %v", scheme, f, a.PerFlow[f], b.PerFlow[f]))
				break
			}
		}
		if ref == nil {
			continue
		}
		want, ok := ref.Tables[scheme]
		if !ok {
			errs = append(errs, fmt.Errorf("%s: missing from the reference", scheme))
			continue
		}
		if d := a.Min - want.Min; d > availTol || d < -availTol {
			errs = append(errs, fmt.Errorf("%s: min %.6f, reference %.6f", scheme, a.Min, want.Min))
		}
		if d := a.Mean - want.Mean; d > availTol || d < -availTol {
			errs = append(errs, fmt.Errorf("%s: mean %.6f, reference %.6f", scheme, a.Mean, want.Mean))
		}
	}
	return errs
}

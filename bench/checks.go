package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"sort"

	"prete/internal/core"
	"prete/internal/routing"
	"prete/internal/scenario"
	"prete/internal/te"
	"prete/internal/topology"
)

const (
	phiTol   = 1e-6 // installed-plan loss vs reported Phi, and Phi vs reference
	availTol = 1e-4 // offline Min/Mean vs reference
	// refOps is how many leading ops of a run the committed reference pins.
	refOps = 32
)

// checker counts failed operations. An op fails when any of its output
// checks does; run-level checks (accounting identities, final agent state)
// count as one op each.
type checker struct {
	attempted, failed int
	notes             []string // the first few failures, for the operator
}

// op records one attempted operation and its check failures.
func (c *checker) op(what string, errs ...error) {
	c.attempted++
	c.verdict(what, errs...)
}

// run records a run-level check, which adds to failed but not attempted.
func (c *checker) run(what string, errs ...error) { c.verdict(what, errs...) }

func (c *checker) verdict(what string, errs ...error) {
	bad := false
	for _, err := range errs {
		if err == nil {
			continue
		}
		bad = true
		if len(c.notes) < 8 {
			c.notes = append(c.notes, what+": "+err.Error())
		}
	}
	if bad {
		c.failed++
	}
}

// betaQuantileLoss recomputes, independently of the optimizer, the loss
// level an allocation guarantees at probability beta: for every flow, the
// smallest L such that the scenarios in which the flow loses at most L
// carry mass >= beta; the result is the worst flow's L. Mass outside the
// enumerated set counts as full loss, as the availability accounting does.
func betaQuantileLoss(ts *routing.TunnelSet, alloc te.Allocation, demands te.Demands, set *scenario.Set, beta float64) float64 {
	plan := &te.Plan{Alloc: alloc, Tunnels: ts}
	cuts := make([]map[topology.FiberID]bool, len(set.Scenarios))
	for i, sc := range set.Scenarios {
		cuts[i] = sc.CutSet()
	}
	type lossMass struct{ loss, prob float64 }
	row := make([]lossMass, len(set.Scenarios))
	worst := 0.0
	for f, d := range demands {
		if d <= 0 {
			continue
		}
		for i, sc := range set.Scenarios {
			row[i] = lossMass{1 - te.Delivered(plan, routing.FlowID(f), d, cuts[i])/d, sc.Prob}
		}
		sort.Slice(row, func(a, b int) bool { return row[a].loss < row[b].loss })
		q, mass := 1.0, 0.0
		for _, lm := range row {
			if mass += lm.prob; mass >= beta-1e-12 {
				q = lm.loss
				break
			}
		}
		worst = math.Max(worst, q)
	}
	return worst
}

// planVerifier checks installed plans, remembering the last plan it passed
// so a cache-hit epoch re-installing the identical plan against the
// identical scenario set is not recomputed.
type planVerifier struct {
	fp    scenario.Fingerprint
	ts    *routing.TunnelSet
	alloc te.Allocation
}

// checkSolve verifies one Benders result against the scenario set it was
// solved for: no budget truncation, and the independently recomputed
// beta-quantile loss within phiTol of the reported Phi.
func checkSolve(what string, ts *routing.TunnelSet, res *core.Result, demands te.Demands, set *scenario.Set) error {
	if res.Truncated || res.Fallback {
		return fmt.Errorf("%s: truncated=%v fallback=%v", what, res.Truncated, res.Fallback)
	}
	if q := betaQuantileLoss(ts, res.Alloc, demands, set, beta); q > res.Phi+phiTol {
		return fmt.Errorf("%s: beta-quantile loss %.9f exceeds reported Phi %.9f", what, q, res.Phi)
	}
	return nil
}

// designedDelta is the solve-cache verdict every epoch of a mode must get.
var designedDelta = map[mode]scenario.DeltaClass{
	modeStorm: scenario.DeltaStructural,
	modeQuiet: scenario.DeltaUnchanged,
	modeDrift: scenario.DeltaProbOnly,
}

// epoch runs every per-epoch output check and returns the failures.
func (v *planVerifier) epoch(s *site, r *epochResult, i int, ref *reference) []error {
	var errs []error
	plan := &te.Plan{Alloc: r.alloc, Tunnels: r.tunnels}
	if err := te.CheckCapacity(s.net, plan); err != nil {
		errs = append(errs, err)
	}
	fp := r.set.Fingerprint()
	if fp != v.fp || r.tunnels != v.ts || !maps.Equal(r.alloc, v.alloc) {
		ok := true
		if r.classed != nil {
			for _, tier := range r.classed.Tiers {
				if err := checkSolve("tier "+tier.Name, r.tunnels, tier.Res, tier.Demands, r.set); err != nil {
					errs, ok = append(errs, err), false
				}
			}
		} else if err := checkSolve("solve", r.tunnels, r.res, s.in.demands, r.set); err != nil {
			errs, ok = append(errs, err), false
		}
		if ok {
			v.fp, v.ts, v.alloc = fp, r.tunnels, r.alloc
		}
	}
	if r.decision != nil {
		if err := r.decision.Check(); err != nil {
			errs = append(errs, err)
		}
	}
	if want := designedDelta[s.in.spec.mode]; r.delta != want {
		errs = append(errs, fmt.Errorf("solve-cache delta %v, the workload is designed for %v", r.delta, want))
	}
	if ref != nil && i < len(ref.Phi) {
		got := r.phis()
		if len(got) != len(ref.Phi[i]) {
			errs = append(errs, fmt.Errorf("%d Phi values, reference has %d", len(got), len(ref.Phi[i])))
		} else {
			for k := range got {
				if math.Abs(got[k]-ref.Phi[i][k]) > phiTol {
					errs = append(errs, fmt.Errorf("Phi[%d] %.9f, reference %.9f", k, got[k], ref.Phi[i][k]))
				}
			}
		}
	}
	return errs
}

// phis lists the epoch's reported loss bounds: one per tier, or the one.
func (r *epochResult) phis() []float64 {
	if r.classed == nil {
		return []float64{r.res.Phi}
	}
	out := make([]float64, len(r.classed.Tiers))
	for k, tier := range r.classed.Tiers {
		out[k] = tier.Res.Phi
	}
	return out
}

// final runs the run-level checks of an online site after its last epoch.
func (s *site) final(c *checker, epochs int) {
	// Replication accounting: every journaled epoch (the warm-up too) was
	// shipped and acknowledged, and the identity holds exactly.
	rs := s.repl.Stats()
	if want := int64(epochs + 1); rs.Acked != want {
		c.run("replication", fmt.Errorf("acked %d of %d journaled epochs", rs.Acked, want))
	}
	if rs.Shipped != rs.Acked+rs.Resent+rs.Inflight {
		c.run("replication", fmt.Errorf("shipped %d != acked %d + resent %d + inflight %d", rs.Shipped, rs.Acked, rs.Resent, rs.Inflight))
	}
	if as := s.applier.Stats(); as.LastSeq != uint64(epochs+1) {
		c.run("replication", fmt.Errorf("second site applied through seq %d, leader journaled %d", as.LastSeq, epochs+1))
	}
	// Ingest never shed load.
	if st := s.pipe.Stats(); st.Dropped != 0 || st.Merged != 0 || st.Ingested != st.Emitted {
		c.run("ingest", fmt.Errorf("ingested %d emitted %d dropped %d merged %d", st.Ingested, st.Emitted, st.Dropped, st.Merged))
	}
	c.run("agents", s.agentsHold(s.pushed))
	// Cache outcome counts match the workload's design.
	cs := s.cache.Stats()
	if s.classes != nil {
		cs = s.tierCaches[0].Stats()
	}
	n := uint64(epochs)
	var want core.CacheStats
	switch s.in.spec.mode {
	case modeStorm:
		want.Misses = n + 1
	case modeQuiet:
		want.Misses, want.Hits = 1, n
	case modeDrift:
		want.Misses, want.Revalidations = 1, n
	}
	if cs.Hits != want.Hits || cs.Misses != want.Misses || cs.Revalidations != want.Revalidations {
		c.run("solve cache", fmt.Errorf("hits/revalidations/misses %d/%d/%d, designed %d/%d/%d",
			cs.Hits, cs.Revalidations, cs.Misses, want.Hits, want.Revalidations, want.Misses))
	}
}

// agentsHold checks every agent's rate table carries table's entries.
// (Agents merge pushes, so entries of since-removed tunnels may linger.)
func (s *site) agentsHold(table map[string]float64) error {
	for _, a := range s.agents {
		got := a.Rates()
		for k, v := range table {
			if w, ok := got[k]; !ok || w != v {
				return fmt.Errorf("agent %s holds %s=%v, last pushed %v", a.Name, k, w, v)
			}
		}
	}
	return nil
}

// reference is the committed expected output of one (workload, seed).
type reference struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// Phi[i] lists epoch i's reported loss bounds (one per tier).
	Phi [][]float64 `json:"phi,omitempty"`
	// Tables maps scheme -> availability summary of the offline table.
	Tables map[string]availRef `json:"tables,omitempty"`
}

type availRef struct {
	Min  float64 `json:"min"`
	Mean float64 `json:"mean"`
}

//go:embed ref/*.json
var refFS embed.FS

func refName(workload string, seed uint64) string {
	return fmt.Sprintf("ref/%s-%d.json", workload, seed)
}

// loadReference returns the committed reference for (workload, seed), or
// nil when none is committed for that seed.
func loadReference(workload string, seed uint64) (*reference, error) {
	b, err := refFS.ReadFile(refName(workload, seed))
	if err != nil {
		return nil, nil
	}
	var ref reference
	if err := json.Unmarshal(b, &ref); err != nil {
		return nil, fmt.Errorf("%s: %w", refName(workload, seed), err)
	}
	return &ref, nil
}

// checkRestart verifies one warm restart recovered the journaled state and
// left the fleet holding the recovered plan.
func (s *site) checkRestart(r *restartResult) []error {
	var errs []error
	want := uint64(s.in.spec.journaled + 1) // the warm-up epoch is journaled too
	if !r.rec.Warm || r.rec.Epoch != want {
		errs = append(errs, fmt.Errorf("recovered warm=%v epoch %d, journaled %d", r.rec.Warm, r.rec.Epoch, want))
	}
	if r.rec.CorruptSkipped != 0 {
		errs = append(errs, fmt.Errorf("recovery skipped %d corrupt records", r.rec.CorruptSkipped))
	}
	if len(r.rates) != len(s.pushed) {
		errs = append(errs, fmt.Errorf("recovered %d rates, last pushed table has %d", len(r.rates), len(s.pushed)))
	}
	for k, v := range s.pushed {
		if w, ok := r.rates[k]; !ok || w != v {
			errs = append(errs, fmt.Errorf("recovered rate %s=%v, last pushed %v", k, w, v))
			break
		}
	}
	if err := s.agentsHold(r.rates); err != nil {
		errs = append(errs, err)
	}
	return errs
}

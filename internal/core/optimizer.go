package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"time"

	"prete/internal/lp"
	"prete/internal/obs"
	"prete/internal/routing"
	"prete/internal/scenario"
	"prete/internal/te"
	"prete/internal/topology"
)

// Class is a failure-equivalence class: the scenarios q under which flow f
// has exactly the same surviving tunnel set T_{f,q} (union Y^s_{f,q}).
// Merging scenarios into classes is exact — within a class the loss l_{f,q}
// is identical for any allocation, and a master solution gains probability
// mass at zero cost by selecting whole classes — and it shrinks the
// subproblem by an order of magnitude.
type Class struct {
	Flow  routing.FlowID
	Avail []routing.TunnelID // surviving tunnels, sorted
	Prob  float64            // summed probability of the merged scenarios
}

// classModel is the class structure of one tunnel table and scenario set.
// It reads neither demands nor capacities, so every tier of a classed solve
// shares one (see SolveClassedCached).
type classModel struct {
	// classes is flow-major — flows in ts.Flows order, each flow's classes
	// in first-seen scenario order.
	classes []Class
	// classes[flowAt[i]:flowAt[i+1]] belong to the flow at position i.
	flowAt []int
	// classOf[i][q] is the index in classes of the class scenario q puts
	// the flow at position i in.
	classOf [][]int32
	// keys[ci] is class ci's identity across epochs: its flow and the mask
	// of its surviving tunnels, the bytes buildFlowClasses merges by.
	keys []string
}

// span bounds the classes of the flow at position i.
func (cm *classModel) span(i int) (lo, hi int) { return cm.flowAt[i], cm.flowAt[i+1] }

// buildClasses builds the class model, one flow at a time in ts.Flows
// order. Each scenario's cut set is built once here and read by every
// flow.
func buildClasses(ts *routing.TunnelSet, set *scenario.Set) *classModel {
	cuts := cutSets(set)
	nf, ns := len(ts.Flows), len(set.Scenarios)
	of := make([]int32, nf*ns)
	cm := &classModel{flowAt: make([]int, 1, nf+1), classOf: make([][]int32, nf)}
	for i := range cm.classOf {
		cm.classOf[i] = of[i*ns : (i+1)*ns : (i+1)*ns]
	}
	perFlow := make([]flowClasses, nf)
	total := 0
	for i, f := range ts.Flows {
		perFlow[i] = buildFlowClasses(ts, set, cuts, f.ID, cm.classOf[i])
		total += len(perFlow[i].classes)
	}
	cm.classes = make([]Class, 0, total)
	cm.keys = make([]string, 0, total)
	for i, fc := range perFlow {
		base := int32(len(cm.classes))
		for q := range cm.classOf[i] {
			cm.classOf[i][q] += base
		}
		cm.classes = append(cm.classes, fc.classes...)
		cm.keys = append(cm.keys, fc.keys...)
		cm.flowAt = append(cm.flowAt, len(cm.classes))
	}
	return cm
}

// cutSets returns every scenario's cut fibers as a FiberSet, all carved
// from one backing array.
func cutSets(set *scenario.Set) []topology.FiberSet {
	width := 0
	for _, sc := range set.Scenarios {
		if n := len(sc.Cut); n > 0 {
			width = max(width, int(sc.Cut[n-1])>>6+1) // Cut is sorted
		}
	}
	words := make([]uint64, len(set.Scenarios)*width)
	cuts := make([]topology.FiberSet, len(set.Scenarios))
	for q, sc := range set.Scenarios {
		cuts[q] = sc.CutInto(words[q*width : q*width : (q+1)*width])
	}
	return cuts
}

// flowClasses is one flow's classes and their keys.
type flowClasses struct {
	classes []Class
	keys    []string
}

// buildFlowClasses merges the scenario set into one flow's equivalence
// classes, in first-seen scenario order, and sets of[q] to the index among
// them of scenario q's class. A surviving set is a bit mask over the flow's
// tunnels (bit j is TunnelsOf(flow)[j]), and classes merge by the flow and
// that mask. A scenario that cuts no fiber under any of the flow's tunnels
// keeps them all, untested.
func buildFlowClasses(ts *routing.TunnelSet, set *scenario.Set, cuts []topology.FiberSet, flow routing.FlowID, of []int32) flowClasses {
	tids := ts.TunnelsOf(flow)
	var footprint topology.FiberSet
	for _, tid := range tids {
		for w, word := range ts.Tunnel(tid).Fibers {
			for len(footprint) <= w {
				footprint = append(footprint, 0)
			}
			footprint[w] |= word
		}
	}
	key := binary.AppendUvarint(make([]byte, 0, binary.MaxVarintLen64+(len(tids)+7)/8), uint64(flow))
	prefix := len(key)
	key = key[:prefix+(len(tids)+7)/8]
	mask := key[prefix:]
	var out flowClasses
	at := make(map[string]int32) // key -> index in out.classes
	everyTunnel := int32(-1)     // the class where all of tids survive
	for q, sc := range set.Scenarios {
		clear(mask)
		hit := cuts[q].Intersects(footprint)
		if !hit && everyTunnel >= 0 {
			out.classes[everyTunnel].Prob += sc.Prob
			of[q] = everyTunnel
			continue
		}
		for j, tid := range tids {
			if !hit || ts.Tunnel(tid).AvailableUnder(cuts[q]) {
				mask[j>>3] |= 1 << (j & 7)
			}
		}
		ci, ok := at[string(key)]
		if !ok {
			var avail []routing.TunnelID
			n := 0
			for _, b := range mask {
				n += bits.OnesCount8(b)
			}
			if n > 0 {
				avail = make([]routing.TunnelID, 0, n)
			}
			for j, tid := range tids {
				if mask[j>>3]&(1<<(j&7)) != 0 {
					avail = append(avail, tid)
				}
			}
			ci = int32(len(out.classes))
			k := string(key)
			at[k] = ci
			out.classes = append(out.classes, Class{Flow: flow, Avail: avail})
			out.keys = append(out.keys, k)
		}
		if !hit {
			everyTunnel = ci
		}
		out.classes[ci].Prob += sc.Prob
		of[q] = ci
	}
	return out
}

// solveModel is everything one solve reads, built once by newSolveModel and
// addressed by position from then on: the validated input and its class
// model. Every LP row over classes (coverage, beta, cuts) follows the class
// order, and the order decides the simplex vertex — see te.AllocLP.
type solveModel struct {
	in *te.Input
	*classModel
}

// lazyClasses returns a function that builds in's class model on its first
// call and hands back the same model after.
func lazyClasses(in *te.Input) func() *classModel {
	var cm *classModel
	return func() *classModel {
		if cm == nil {
			cm = buildClasses(in.Tunnels, in.Scenarios)
		}
		return cm
	}
}

// newSolveModel validates in and takes its class model from classes, which
// must build it for in's tunnels and scenarios.
func newSolveModel(in *te.Input, classes func() *classModel) (*solveModel, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if in.Scenarios == nil || len(in.Scenarios.Scenarios) == 0 {
		return nil, fmt.Errorf("core: no failure scenarios")
	}
	return &solveModel{in: in, classModel: classes()}, nil
}

// addBetaRows adds constraint (5) to p, one row per flow in flow order: the
// probability mass of the flow's selected classes reaches beta.
// deltaVars[ci] is the selection column of class ci.
func (sm *solveModel) addBetaRows(p *lp.Problem, deltaVars []int) {
	terms := make([]lp.Term, len(deltaVars))
	for ci, v := range deltaVars {
		terms[ci] = lp.Term{Var: v, Coeff: sm.classes[ci].Prob}
	}
	for i := range sm.in.Tunnels.Flows {
		lo, hi := sm.span(i)
		p.AddConstraint(terms[lo:hi:hi], lp.GE, sm.in.Beta)
	}
}

// classMinLoss lower-bounds a class's achievable loss from its surviving
// tunnels' bottleneck capacities, ignoring contention with other flows
// (hence a valid optimistic bound).
func classMinLoss(in *te.Input, c Class) float64 {
	d := in.Demands[c.Flow]
	if d <= 0 {
		return 0
	}
	var capSum float64
	for _, tid := range c.Avail {
		t := in.Tunnels.Tunnel(tid)
		bottleneck := -1.0
		for _, lid := range t.Links {
			if cc := in.Net.Link(lid).Capacity; bottleneck < 0 || cc < bottleneck {
				bottleneck = cc
			}
		}
		if bottleneck > 0 {
			capSum += bottleneck
		}
	}
	if capSum >= d {
		return 0
	}
	return 1 - capSum/d
}

// Algorithm 2's limits.
const (
	epsilon     = 1e-4 // UB-LB convergence threshold (Algorithm 2's epsilon)
	maxIters    = 30   // Benders iterations per solve
	masterNodes = 2000 // branch-and-bound nodes per master solve
)

// Optimizer solves the PreTE formulation (Eqns. 2-8) with Benders
// decomposition (Algorithm 2). The zero value is ready to use.
type Optimizer struct {
	// DisableStructuralCuts turns off the bottleneck-capacity seeding cuts
	// (ablation knob: without them, Benders prunes hopeless classes one
	// iteration at a time).
	DisableStructuralCuts bool
	// DisablePolish skips the satisfaction-maximizing re-solve (ablation
	// knob: allocations then stop at exactly (1-Phi)d per flow).
	DisablePolish bool
	// BudgetUnits caps the deterministic work one Solve may consume —
	// simplex pivots + branch-and-bound nodes + Benders iterations, each
	// costing one unit; 0 is unlimited. When the budget expires the solve
	// returns its best feasible incumbent with Result.Truncated set (or the
	// heuristicPlan fallback when no incumbent exists yet) instead of
	// erroring, and equal budgets reproduce bit-identical results (see
	// lp.Budget).
	BudgetUnits int64
	// SolveTimeout is the optional wall-clock ceiling per Solve — the
	// safety net a production controller derives from its TE period; 0 is
	// none. Crossing it truncates exactly like BudgetUnits running out, but
	// is inherently nondeterministic, so deterministic experiments use
	// units only.
	SolveTimeout time.Duration
	// Metrics, when non-nil, receives Benders iteration counts, cuts
	// added, master/subproblem solve times, LP pivot/node counts, and the
	// core.budget.* / core.anytime.* truncation series.
	// Metrics are write-only: results are bit-identical with Metrics nil
	// or set (internal/core's obs tests assert this).
	Metrics *obs.Registry
}

// optObs holds the optimizer's pre-resolved metric handles. Every handle is
// nil (a no-op) when the registry is nil, so the instrumented paths carry no
// branches beyond the nil checks inside internal/obs.
type optObs struct {
	iterations     *obs.Counter
	cutsAdded      *obs.Counter
	structuralCuts *obs.Counter
	classes        *obs.Gauge
	masterSolve    *obs.Timer
	subSolve       *obs.Timer
	polishSolve    *obs.Timer
	pivots         *obs.Counter
	bbNodes        *obs.Counter
	pivotsPerSolve *obs.Histogram

	budgetSpent     *obs.Counter   // work units consumed across solves
	budgetExhausted *obs.Counter   // solves whose budget ran out
	truncated       *obs.Counter   // solves returning a truncated incumbent
	fallback        *obs.Counter   // solves degrading to heuristicPlan
	firstIncumbent  *obs.Histogram // work units to the first feasible incumbent
}

func (o *Optimizer) metrics() optObs {
	r := o.Metrics
	return optObs{
		iterations:     r.Counter("core.benders.iterations"),
		cutsAdded:      r.Counter("core.benders.cuts_added"),
		structuralCuts: r.Counter("core.benders.structural_cuts"),
		classes:        r.Gauge("core.benders.classes"),
		masterSolve:    r.Timer("core.benders.master_solve"),
		subSolve:       r.Timer("core.benders.subproblem_solve"),
		polishSolve:    r.Timer("core.benders.polish_solve"),
		pivots:         r.Counter("core.lp.pivots"),
		bbNodes:        r.Counter("core.lp.bb_nodes"),
		pivotsPerSolve: r.Histogram("core.lp.pivots_per_solve", obs.CountBuckets()),

		budgetSpent:     r.Counter("core.budget.spent"),
		budgetExhausted: r.Counter("core.budget.exhausted"),
		truncated:       r.Counter("core.anytime.truncated"),
		fallback:        r.Counter("core.anytime.fallback"),
		firstIncumbent:  r.Histogram("core.anytime.first_incumbent_units", obs.CountBuckets()),
	}
}

// observeLP records one LP/MIP solve's pivot and node counts.
func (m optObs) observeLP(sol *lp.Solution) {
	m.pivots.Add(int64(sol.Pivots))
	m.bbNodes.Add(int64(sol.Nodes))
	m.pivotsPerSolve.Observe(float64(sol.Pivots))
}

// solveLP runs one LP under the budget, timed by t and counted: a truncated
// solve is errBudgetExhausted, any other non-optimal status an error naming
// the LP.
func (m optObs) solveLP(t *obs.Timer, p *lp.Problem, budget *lp.Budget, name string) (*lp.Solution, error) {
	start := t.Start()
	sol := p.SolveBudget(budget)
	t.Stop(start)
	m.observeLP(sol)
	switch sol.Status {
	case lp.Optimal:
		return sol, nil
	case lp.Truncated:
		return nil, errBudgetExhausted
	}
	return nil, fmt.Errorf("%s %v", name, sol.Status)
}

// DefaultOptimizer returns an Optimizer with every setting at its default.
func DefaultOptimizer() *Optimizer {
	return &Optimizer{}
}

// Result is the optimization outcome.
type Result struct {
	Alloc      te.Allocation
	Phi        float64 // the minimized maximum loss
	Iterations int
	LB, UB     float64
	// Selected reports the final delta: class index -> selected.
	Selected []bool
	// Truncated reports the compute budget expired before Benders
	// converged: Alloc is the best feasible incumbent found in time (or the
	// heuristic fallback when Fallback is also set), not a certified
	// optimum.
	Truncated bool
	// Fallback reports no feasible incumbent existed when the budget
	// expired, so Alloc is the proportional heuristicPlan — rung three of
	// the degradation ladder.
	Fallback bool
	// WorkUnits is the deterministic work (pivots + B&B nodes + Benders
	// iterations) the solve consumed.
	WorkUnits int64
	// FirstIncumbentUnits is the work consumed when the first feasible
	// incumbent appeared (0 when none did) — the anytime latency figure the
	// deadline experiment and BenchmarkSolveAnytime* report.
	FirstIncumbentUnits int64
}

// newBudget materializes the optimizer's per-solve budget configuration;
// nil when the optimizer is unlimited.
func (o *Optimizer) newBudget() *lp.Budget {
	if o.BudgetUnits <= 0 && o.SolveTimeout <= 0 {
		return nil
	}
	return lp.NewBudget(o.BudgetUnits).WithTimeout(o.SolveTimeout)
}

// Solve runs Algorithm 2 on the input under the optimizer's configured
// budget (BudgetUnits / SolveTimeout). The scenario set's probabilities
// must already be calibrated (Eqn. 1) by the caller. The solve is anytime:
// when the budget expires mid-search it returns the best feasible incumbent
// found so far with Result.Truncated set, and when no incumbent exists yet
// it returns the heuristic fallback plan (Result.Fallback) — the caller
// always gets an installable plan. An unlimited optimizer reproduces the
// historical unbudgeted solve exactly.
func (o *Optimizer) Solve(in *te.Input) (*Result, error) {
	return o.solveCached(in, nil, lazyClasses(in))
}

// solve is Solve on a built model under an explicit budget (nil is
// unlimited), with a warm-start seam; beside the result it returns the full
// cut pool (structural + subproblem optimality cuts) for the cross-epoch
// SolveCache. warm, when non-nil, is a pool of optimality cuts already
// remapped to this model's class order (see SolveCache): the solve then
// skips structural-cut seeding (the warm pool subsumes it), seeds the master
// with the full pool, and — because the cuts are valid for the new problem —
// lifts the lower bound from the initial master solve, so a quiet epoch
// converges in one or two Benders iterations. With warm nil the behaviour is
// bit-identical to a cold Solve, which the warm-cache invariant tests pin.
func (o *Optimizer) solve(sm *solveModel, budget *lp.Budget, warm []bendersCut) (*Result, []bendersCut, error) {
	in, classes := sm.in, sm.classes
	if budget == nil {
		// Unlimited, but still account work units uniformly.
		budget = lp.NewBudget(0)
	}
	spentAt := budget.Spent()
	m := o.metrics()
	m.classes.Set(float64(len(classes)))
	// Feasibility of constraint (5): every flow must be able to reach beta.
	for i, fl := range in.Tunnels.Flows {
		lo, hi := sm.span(i)
		var mass float64
		for _, c := range classes[lo:hi] {
			mass += c.Prob
		}
		if mass < in.Beta-1e-12 {
			return nil, nil, fmt.Errorf("core: flow %d has only %.6f scenario mass for beta %.6f; widen the scenario cutoff", fl.ID, mass, in.Beta)
		}
	}

	// Structural cuts Phi >= minLoss_c * delta_c: a class whose surviving
	// tunnels have bottleneck capacity below the demand cannot be served
	// regardless of the rest of the network, so the master learns upfront
	// which classes force loss (in particular, disconnected classes force
	// Phi = 1). These are valid optimality cuts — l_{f,c} >= minLoss_c
	// holds for every allocation — and they spare Benders one iteration
	// per hopeless class. A warm start supersedes the seeding: the cached
	// pool already contains the previous epoch's structural cuts (demand
	// and capacity inputs are fingerprint-pinned, so they are still valid).
	var cuts []bendersCut
	if warm != nil {
		cuts = append(cuts, warm...)
	} else if !o.DisableStructuralCuts {
		for ci, c := range classes {
			ml := classMinLoss(in, c)
			if ml <= 0 {
				continue
			}
			cut := bendersCut{coef: make([]float64, len(classes)), con: ml}
			cut.coef[ci] = ml
			cuts = append(cuts, cut)
		}
		m.structuralCuts.Add(int64(len(cuts)))
	}

	// Algorithm 2, line 2: initialize delta = 1 for all (f, q) — then let
	// the structural cuts immediately refine it when present.
	delta := make([]bool, len(classes))
	for i := range delta {
		delta[i] = true
	}
	lb, ub := 0.0, 1.0
	if len(cuts) > 0 {
		d, masterPhi, err := o.solveMaster(sm, cuts, m, budget)
		if err == nil {
			delta = d
			if warm != nil && masterPhi > lb {
				// Every warm cut is a valid optimality cut for this input, so
				// the seeded master's optimum already lower-bounds Phi — the
				// step that lets a quiet epoch converge on its first
				// subproblem. (Cold structural cuts would justify this too,
				// but the historic path leaves lb at 0; changing it would
				// perturb bit-compatibility for no convergence gain.)
				lb = masterPhi
			}
		}
	}
	var bestAlloc te.Allocation
	var bestPhi float64
	var bestDelta []bool
	var firstIncumbentUnits int64
	truncated := false
	iters := 0
	for ; iters < maxIters; iters++ {
		// One Benders iteration = one work unit, charged before the
		// subproblem so exhaustion stops the solve at an iteration boundary.
		if !budget.Spend(1) {
			truncated = true
			break
		}
		m.iterations.Inc()
		// Step 1: solve the subproblem with delta fixed.
		sp, err := o.solveSubproblem(sm, delta, m, budget)
		if err != nil {
			if errors.Is(err, errBudgetExhausted) {
				truncated = true
				break
			}
			return nil, nil, fmt.Errorf("core: subproblem iter %d: %w", iters, err)
		}
		if sp.phi <= ub {
			if bestAlloc == nil {
				firstIncumbentUnits = budget.Spent() - spentAt
			}
			ub = sp.phi
			bestAlloc = sp.alloc
			bestPhi = sp.phi
			bestDelta = append(bestDelta[:0], delta...)
		}
		cuts = append(cuts, sp.cut)
		m.cutsAdded.Inc()
		if ub-lb <= epsilon {
			iters++
			break
		}
		// Step 2: solve the master with the accumulated optimality cuts.
		newDelta, masterPhi, err := o.solveMaster(sm, cuts, m, budget)
		if err != nil {
			if errors.Is(err, errBudgetExhausted) {
				truncated = true
				break
			}
			return nil, nil, fmt.Errorf("core: master iter %d: %w", iters, err)
		}
		if masterPhi > lb {
			lb = masterPhi
		}
		// Step 3: bound update and convergence check (line 5).
		if ub-lb <= epsilon {
			iters++
			break
		}
		delta = newDelta
	}
	fallback := false
	if bestAlloc == nil {
		if !truncated {
			return nil, nil, fmt.Errorf("core: no feasible subproblem solution")
		}
		// Rung three of the degradation ladder: the budget expired before any
		// feasible incumbent existed, so hand back the proportional heuristic
		// — always capacity-feasible, always installable.
		fallback = true
		bestAlloc, bestPhi = sm.heuristicPlan()
		ub = bestPhi
	}
	// Polish: with delta fixed at the incumbent, re-solve for the most
	// satisfying allocation at (essentially) the optimal Phi — a bare
	// min-Phi LP is content to stop at (1-Phi)d per flow, which would make
	// downstream availability accounting degenerate. Runs under the same
	// budget; when it truncates, the unpolished incumbent stands.
	if !o.DisablePolish && !fallback {
		if polished, err := o.polish(sm, bestDelta, bestPhi, m, budget); err == nil {
			bestAlloc = polished
		} else if errors.Is(err, errBudgetExhausted) {
			// Converged, but the budget died inside the polish LP: the
			// unpolished incumbent stands, and the caller learns the solve
			// was cut short.
			truncated = true
		}
	}
	workUnits := budget.Spent() - spentAt
	m.budgetSpent.Add(workUnits)
	if truncated {
		m.budgetExhausted.Inc()
		if fallback {
			m.fallback.Inc()
		} else {
			m.truncated.Inc()
		}
	}
	if firstIncumbentUnits > 0 {
		m.firstIncumbent.Observe(float64(firstIncumbentUnits))
	}
	return &Result{
		Alloc: bestAlloc, Phi: bestPhi,
		Iterations: iters, LB: lb, UB: ub, Selected: bestDelta,
		Truncated: truncated, Fallback: fallback,
		WorkUnits: workUnits, FirstIncumbentUnits: firstIncumbentUnits,
	}, cuts, nil
}

// selectedLP starts the LP the subproblem and the polish share: the
// allocation skeleton (constraint 3), constraint (4) — sum a + d*phi >= d —
// for every selected class with demand, and Phi <= phiCap. covRow[ci] is
// class ci's coverage row, -1 when it has none. extra is what the caller
// adds after it.
func (sm *solveModel) selectedLP(phiCost float64, delta []bool, phiCap float64, extra te.Size) (*te.AllocLP, []int) {
	in := sm.in
	covered := func(ci int) bool { return delta[ci] && in.Demands[sm.classes[ci].Flow] > 0 }
	for ci, c := range sm.classes {
		if covered(ci) {
			extra.Coverage(c.Avail)
		}
	}
	prob := te.NewAllocLP(lp.NewProblem(), phiCost, in.Net, in.Tunnels, extra)
	covRow := make([]int, len(sm.classes))
	for ci, c := range sm.classes {
		covRow[ci] = -1
		if covered(ci) {
			covRow[ci] = prob.AddCoverage(te.Phi, in.Demands[c.Flow], c.Avail)
		}
	}
	prob.AddUpperBound(te.Phi, phiCap)
	return prob, covRow
}

// polish maximizes total satisfied demand fraction subject to the
// converged delta and loss bound.
func (o *Optimizer) polish(sm *solveModel, delta []bool, phiCap float64, m optObs, budget *lp.Budget) (te.Allocation, error) {
	// Secondary objective: maximize the probability-weighted satisfied
	// fraction across ALL significant classes (selected or not) — i.e. the
	// expected availability itself. Protection beyond the beta-selected
	// classes is free whenever capacity allows, and a production TE system
	// takes it; a plain per-flow satisfaction term would happily
	// concentrate a flow onto one tunnel and die with its fiber.
	const polishClassFloor = 1e-4 // skip classes too rare to move the objective
	weighed := func(c Class) bool {
		return sm.in.Demands[c.Flow] > 0 && c.Prob >= polishClassFloor && len(c.Avail) > 0
	}
	var size te.Size
	for _, c := range sm.classes {
		if weighed(c) {
			size.Satisfaction(c.Avail)
		}
	}
	prob, _ := sm.selectedLP(0, delta, phiCap+1e-7, size)
	for _, c := range sm.classes {
		if weighed(c) {
			prob.AddSatisfaction(c.Prob, sm.in.Demands[c.Flow], c.Avail)
		}
	}
	sol, err := m.solveLP(m.polishSolve, prob.Problem, budget, "polish LP")
	if err != nil {
		return nil, err
	}
	return prob.Allocation(sol), nil
}

// bendersCut is an optimality cut Phi >= sum(coef_i * delta_i) + constant.
type bendersCut struct {
	coef []float64 // per class; zero entries omitted implicitly
	con  float64
}

type spSolution struct {
	alloc te.Allocation
	phi   float64
	cut   bendersCut
}

// solveSubproblem solves the reduced SP (l variables eliminated — see
// DESIGN.md) for a fixed delta and derives the Appendix A.4 optimality cut
// from its duals: w_{f,c} = d_f * y_{f,c} reconstructs a dual-feasible point
// of the full SP of Appendix A.5.
func (o *Optimizer) solveSubproblem(sm *solveModel, delta []bool, m optObs, budget *lp.Budget) (*spSolution, error) {
	prob, covRow := sm.selectedLP(1, delta, 1, te.Size{})
	sol, err := m.solveLP(m.subSolve, prob.Problem, budget, "subproblem LP")
	if err != nil {
		return nil, err
	}
	// Cut assembly: Phi >= sum_c w_c (delta_c - 1) + [sum_c w_c + sum_e c_e u_e']
	// where w_c = d_f * y_c (y = coverage-row dual >= 0) and the capacity
	// contribution is c_e * dual_e (dual_e <= 0 for LE rows).
	cut := bendersCut{coef: make([]float64, len(covRow))}
	for ci, row := range covRow {
		if row < 0 {
			continue
		}
		y := sol.Duals[row]
		if y < 0 {
			y = 0 // numerical guard; GE-row duals are nonnegative
		}
		w := sm.in.Demands[sm.classes[ci].Flow] * y
		cut.coef[ci] = w
		cut.con += w // from sum d_f v_{fc} with v = y
	}
	for row, c := range prob.Caps {
		cut.con += c * sol.Duals[row] // dual <= 0: subtracts capacity value
	}
	// The cut at the producing delta evaluates to sum w(1-1) + con = con,
	// which must equal the SP optimum by strong duality.
	return &spSolution{alloc: prob.Allocation(sol), phi: sol.X[te.Phi], cut: cut}, nil
}

// exactMasterLimit is the class count up to which the master is solved as
// a true MIP; above it the LP relaxation provides the lower bound and a
// greedy rounding the next delta ("the master problem which is related to a
// small scale binary variable can be solved with slack variables",
// Appendix A.4).
const exactMasterLimit = 48

// solveMaster solves the MP: min Phi s.t. all optimality cuts, the
// availability constraint (5) per flow, delta binary. It returns the next
// delta and a valid lower bound on the optimal Phi.
func (o *Optimizer) solveMaster(sm *solveModel, cuts []bendersCut, mo optObs, budget *lp.Budget) ([]bool, float64, error) {
	classes := sm.classes
	exact := len(classes) <= exactMasterLimit
	m := lp.NewMIP()
	m.Reserve(1+len(classes), len(sm.in.Tunnels.Flows)+len(cuts))
	phi := m.AddVar(1)
	deltaVars := make([]int, len(classes))
	for i := range classes {
		if exact {
			deltaVars[i] = m.AddBinaryVar(0)
		} else {
			deltaVars[i] = m.AddVar(0)
			m.AddUpperBound(deltaVars[i], 1)
		}
	}
	// Constraint (5): per flow, sum of selected class probabilities >= beta.
	sm.addBetaRows(m.Problem, deltaVars)
	// Optimality cuts: Phi - sum coef*delta >= con - sum coef, every row's
	// terms a window of one growing array (a row keeps the array it was
	// written to when a later append moves on).
	var terms []lp.Term
	for _, cut := range cuts {
		start := len(terms)
		terms = append(terms, lp.Term{Var: phi, Coeff: 1})
		rhs := cut.con
		for ci, w := range cut.coef {
			if w == 0 {
				continue
			}
			terms = append(terms, lp.Term{Var: deltaVars[ci], Coeff: -w})
			rhs -= w
		}
		m.AddConstraint(terms[start:len(terms):len(terms)], lp.GE, rhs)
	}
	m.AddUpperBound(phi, 1)
	if exact {
		start := mo.masterSolve.Start()
		sol := m.SolveMIP(lp.MIPOptions{MaxNodes: masterNodes, Budget: budget})
		mo.masterSolve.Stop(start)
		mo.observeLP(sol)
		if sol.Status == lp.Truncated {
			// A truncated master may be fractional (root relaxation) and its
			// rounding could violate the beta constraint — never use it.
			return nil, 0, errBudgetExhausted
		}
		if sol.Status != lp.Optimal && sol.Status != lp.IterationLimit {
			return nil, 0, fmt.Errorf("master MIP %v", sol.Status)
		}
		if sol.X == nil {
			// The root relaxation hit its pivot cap: there is no point.
			return nil, 0, fmt.Errorf("master MIP %v before any point", sol.Status)
		}
		delta := make([]bool, len(classes))
		for i, v := range deltaVars {
			delta[i] = sol.X[v] > 0.5
		}
		return delta, sol.X[phi], nil
	}
	// Relaxation lower bound + greedy rounding.
	sol, err := mo.solveLP(mo.masterSolve, m.Problem, budget, "master relaxation")
	if err != nil {
		return nil, 0, err
	}
	return sm.greedyRound(cuts), sol.X[phi], nil
}

// greedyRound builds a feasible delta: per flow, deselect the classes that
// carry the largest cut weights (they force Phi up) while keeping the
// selected probability mass at or above beta.
func (sm *solveModel) greedyRound(cuts []bendersCut) []bool {
	classes := sm.classes
	weight := make([]float64, len(classes))
	for _, cut := range cuts {
		for i, w := range cut.coef {
			if w > weight[i] {
				weight[i] = w
			}
		}
	}
	delta := make([]bool, len(classes))
	order := make([]int, len(classes))
	for i := range delta {
		delta[i] = true
		order[i] = i
	}
	for f := range sm.in.Tunnels.Flows {
		lo, hi := sm.span(f)
		own := order[lo:hi]
		sort.Slice(own, func(a, b int) bool { return weight[own[a]] > weight[own[b]] })
		var remaining float64
		for _, c := range classes[lo:hi] {
			remaining += c.Prob
		}
		for _, i := range own {
			if weight[i] <= 0 {
				break // the rest are free to keep selected
			}
			if remaining-classes[i].Prob >= sm.in.Beta {
				delta[i] = false
				remaining -= classes[i].Prob
			}
		}
	}
	return delta
}

// SolveExact solves the full MIP (Phi, a, l, delta jointly, constraints
// 2-8 verbatim) by branch-and-bound. Exponential in the class count — used
// by tests to certify the Benders implementation on small instances.
func SolveExact(in *te.Input, nodeLimit int) (*Result, error) {
	sm, err := newSolveModel(in, lazyClasses(in))
	if err != nil {
		return nil, err
	}
	classes := sm.classes
	m := lp.NewMIP()
	// (3) capacity
	prob := te.NewAllocLP(m.Problem, 1, in.Net, in.Tunnels, te.Size{})
	lVars := make([]int, len(classes))
	dVars := make([]int, len(classes))
	for i := range classes {
		lVars[i] = m.AddVar(0)
		m.AddUpperBound(lVars[i], 1)
		dVars[i] = m.AddBinaryVar(0)
	}
	for i, c := range classes {
		d := in.Demands[c.Flow]
		// (4): sum a >= (1 - l) d  <=>  sum a + d*l >= d
		prob.AddCoverage(lVars[i], d, c.Avail)
		// (6): Phi >= l - 1 + delta
		m.AddConstraint([]lp.Term{
			{Var: te.Phi, Coeff: 1}, {Var: lVars[i], Coeff: -1}, {Var: dVars[i], Coeff: -1},
		}, lp.GE, -1)
	}
	// (5)
	sm.addBetaRows(m.Problem, dVars)
	m.AddUpperBound(te.Phi, 1)
	sol := m.SolveMIP(lp.MIPOptions{MaxNodes: nodeLimit})
	truncated := false
	switch sol.Status {
	case lp.Optimal:
	case lp.IterationLimit, lp.Truncated:
		// Node or work limit hit. The incumbent (if any) is feasible but
		// uncertified; a fractional relaxation point is unusable — in that
		// case surface a typed Truncation instead of a generic error so
		// callers can raise the limit or fall back deliberately. A root
		// relaxation that hit its pivot cap carries no point at all.
		if sol.X == nil {
			return nil, &Truncation{Stage: "exact", Limit: "pivots"}
		}
		for _, v := range dVars {
			x := sol.X[v]
			if x > 1e-6 && x < 1-1e-6 {
				return nil, &Truncation{Stage: "exact", Limit: "nodes"}
			}
		}
		truncated = true
	default:
		return nil, fmt.Errorf("core: exact MIP %v", sol.Status)
	}
	res := &Result{Alloc: prob.Allocation(sol), Phi: sol.X[te.Phi], Selected: make([]bool, len(classes)), Truncated: truncated}
	for i, v := range dVars {
		res.Selected[i] = sol.X[v] > 0.5
	}
	res.LB, res.UB = res.Phi, res.Phi
	return res, nil
}

package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"prete/internal/lp"
	"prete/internal/obs"
	"prete/internal/par"
	"prete/internal/routing"
	"prete/internal/scenario"
	"prete/internal/te"
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

// BuildClasses groups a scenario set into per-flow failure-equivalence
// classes, serially. It is BuildClassesP at parallelism 1.
func BuildClasses(ts *routing.TunnelSet, set *scenario.Set) []Class {
	return BuildClassesP(ts, set, 1)
}

// BuildClassesP is the parallel form of BuildClasses: flows are independent,
// so each worker builds one flow's classes and the per-flow lists are
// concatenated in flow order — the exact order the serial loop produces, so
// the result is bit-identical at every parallelism level (<= 0 means
// GOMAXPROCS).
func BuildClassesP(ts *routing.TunnelSet, set *scenario.Set, parallelism int) []Class {
	perFlow := par.Map(len(ts.Flows), parallelism, func(i int) []Class {
		return buildFlowClasses(ts, set, ts.Flows[i].ID)
	})
	var out []Class
	for _, classes := range perFlow {
		out = append(out, classes...)
	}
	return out
}

// buildFlowClasses merges the scenario set into one flow's equivalence
// classes, in first-seen scenario order.
func buildFlowClasses(ts *routing.TunnelSet, set *scenario.Set, flow routing.FlowID) []Class {
	tids := ts.TunnelsOf(flow)
	byKey := make(map[string]*Class)
	var order []string
	for _, sc := range set.Scenarios {
		cut := sc.CutSet()
		var avail []routing.TunnelID
		for _, tid := range tids {
			if ts.Tunnel(tid).AvailableUnder(cut) {
				avail = append(avail, tid)
			}
		}
		key := tunnelKey(avail)
		c, ok := byKey[key]
		if !ok {
			c = &Class{Flow: flow, Avail: avail}
			byKey[key] = c
			order = append(order, key)
		}
		c.Prob += sc.Prob
	}
	out := make([]Class, 0, len(order))
	for _, k := range order {
		out = append(out, *byKey[k])
	}
	return out
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

func tunnelKey(tids []routing.TunnelID) string {
	b := make([]byte, 0, len(tids)*3)
	for _, t := range tids {
		b = append(b, byte(t), byte(t>>8), ',')
	}
	return string(b)
}

// Optimizer solves the PreTE formulation (Eqns. 2-8) with Benders
// decomposition (Algorithm 2).
type Optimizer struct {
	// Epsilon is the UB-LB convergence threshold (Algorithm 2's epsilon).
	Epsilon float64
	// MaxIters bounds Benders iterations.
	MaxIters int
	// MasterNodes bounds the master's branch-and-bound tree.
	MasterNodes int
	// DisableStructuralCuts turns off the bottleneck-capacity seeding cuts
	// (ablation knob: without them, Benders prunes hopeless classes one
	// iteration at a time).
	DisableStructuralCuts bool
	// DisablePolish skips the satisfaction-maximizing re-solve (ablation
	// knob: allocations then stop at exactly (1-Phi)d per flow).
	DisablePolish bool
	// Parallelism bounds the worker count of the optimizer's parallel
	// stages (per-flow class construction, structural-cut seeding, and
	// subproblem row assembly): <= 0 selects runtime.GOMAXPROCS(0), 1
	// forces the serial path. Results are bit-identical at every setting —
	// work is partitioned by index and merged in a fixed order (see
	// internal/par).
	Parallelism int
	// BudgetUnits caps the deterministic work one Solve may consume —
	// simplex pivots + branch-and-bound nodes + Benders iterations, each
	// costing one unit; 0 is unlimited. When the budget expires the solve
	// returns its best feasible incumbent with Result.Truncated set (or the
	// HeuristicPlan fallback when no incumbent exists yet) instead of
	// erroring, and equal budgets reproduce bit-identical results at every
	// Parallelism setting (see lp.Budget).
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
	fallback        *obs.Counter   // solves degrading to HeuristicPlan
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

// DefaultOptimizer returns production-ish settings.
func DefaultOptimizer() *Optimizer {
	return &Optimizer{Epsilon: 1e-4, MaxIters: 30, MasterNodes: 2000}
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
	// expired, so Alloc is the proportional HeuristicPlan — rung three of
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
// must already be calibrated (Eqn. 1) by the caller.
func (o *Optimizer) Solve(in *te.Input) (*Result, error) {
	return o.SolveBudget(in, o.newBudget())
}

// SolveBudget runs Algorithm 2 under an explicit compute budget, making the
// solve anytime: when the budget expires mid-search it returns the best
// feasible incumbent found so far with Result.Truncated set, and when no
// incumbent exists yet it returns the HeuristicPlan fallback (Result.Fallback)
// — the caller always gets an installable plan. A nil budget is unlimited
// and reproduces Solve's historical behaviour exactly.
func (o *Optimizer) SolveBudget(in *te.Input, budget *lp.Budget) (*Result, error) {
	res, _, err := o.solveBudget(in, budget, nil)
	return res, err
}

// solveState carries a completed solve's reusable artifacts — the class
// list and the full cut pool (structural + subproblem optimality cuts) —
// out to the cross-epoch SolveCache.
type solveState struct {
	classes []Class
	cuts    []bendersCut
}

// solveBudget is SolveBudget with a warm-start seam. warm, when non-nil, is
// a pool of optimality cuts already remapped to this input's class order
// (see SolveCache): the solve then skips structural-cut seeding (the warm
// pool subsumes it), seeds the master with the full pool, and — because the
// cuts are valid for the new problem — lifts the lower bound from the
// initial master solve, so a quiet epoch converges in one or two Benders
// iterations. With warm nil the behaviour is bit-identical to the historic
// SolveBudget, which the warm-cache invariant tests pin.
func (o *Optimizer) solveBudget(in *te.Input, budget *lp.Budget, warm []bendersCut) (*Result, *solveState, error) {
	if err := in.Validate(); err != nil {
		return nil, nil, err
	}
	if in.Scenarios == nil || len(in.Scenarios.Scenarios) == 0 {
		return nil, nil, fmt.Errorf("core: no failure scenarios")
	}
	if budget == nil {
		// Unlimited, but still account work units uniformly.
		budget = lp.NewBudget(0)
	}
	spentAt := budget.Spent()
	m := o.metrics()
	classes := BuildClassesP(in.Tunnels, in.Scenarios, o.Parallelism)
	m.classes.Set(float64(len(classes)))
	// Feasibility of constraint (5): every flow must be able to reach beta.
	perFlowMass := make(map[routing.FlowID]float64)
	for _, c := range classes {
		perFlowMass[c.Flow] += c.Prob
	}
	for f, mass := range perFlowMass {
		if mass < in.Beta-1e-12 {
			return nil, nil, fmt.Errorf("core: flow %d has only %.6f scenario mass for beta %.6f; widen the scenario cutoff", f, mass, in.Beta)
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
		// Each class's bound is independent of the others, so the bottleneck
		// scans fan out; cut assembly stays in class order.
		minLoss := par.Map(len(classes), o.Parallelism, func(ci int) float64 {
			return classMinLoss(in, classes[ci])
		})
		for ci, ml := range minLoss {
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
		d, masterPhi, err := o.solveMaster(in, classes, cuts, m, budget)
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
	for ; iters < o.MaxIters; iters++ {
		// One Benders iteration = one work unit, charged before the
		// subproblem so exhaustion stops the solve at an iteration boundary.
		if !budget.Spend(1) {
			truncated = true
			break
		}
		m.iterations.Inc()
		// Step 1: solve the subproblem with delta fixed.
		sp, err := o.solveSubproblem(in, classes, delta, m, budget)
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
		if ub-lb <= o.Epsilon {
			iters++
			break
		}
		// Step 2: solve the master with the accumulated optimality cuts.
		newDelta, masterPhi, err := o.solveMaster(in, classes, cuts, m, budget)
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
		if ub-lb <= o.Epsilon {
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
		bestAlloc, bestPhi = heuristicPlan(in, classes)
		ub = bestPhi
	}
	// Polish: with delta fixed at the incumbent, re-solve for the most
	// satisfying allocation at (essentially) the optimal Phi — a bare
	// min-Phi LP is content to stop at (1-Phi)d per flow, which would make
	// downstream availability accounting degenerate. Runs under the same
	// budget; when it truncates, the unpolished incumbent stands.
	if !o.DisablePolish && !fallback {
		if polished, err := o.polish(in, classes, bestDelta, bestPhi, m, budget); err == nil {
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
	}, &solveState{classes: classes, cuts: cuts}, nil
}

// polish maximizes total satisfied demand fraction subject to the
// converged delta and loss bound.
func (o *Optimizer) polish(in *te.Input, classes []Class, delta []bool, phiCap float64, m optObs, budget *lp.Budget) (te.Allocation, error) {
	prob := lp.NewProblem()
	phi := prob.AddVar(0, "phi")
	tunnelVar := make(map[routing.TunnelID]int, len(in.Tunnels.Tunnels))
	for _, t := range in.Tunnels.Tunnels {
		tunnelVar[t.ID] = prob.AddVar(0, "a")
	}
	linkTerms := make(map[int][]lp.Term)
	for _, t := range in.Tunnels.Tunnels {
		v := tunnelVar[t.ID]
		for _, lid := range t.Links {
			linkTerms[int(lid)] = append(linkTerms[int(lid)], lp.Term{Var: v, Coeff: 1})
		}
	}
	linkIDs := make([]int, 0, len(linkTerms))
	for lid := range linkTerms {
		linkIDs = append(linkIDs, lid)
	}
	sort.Ints(linkIDs) // deterministic row order => deterministic vertex
	for _, lid := range linkIDs {
		if _, err := prob.AddConstraint(linkTerms[lid], lp.LE, in.Net.Links[lid].Capacity, "cap"); err != nil {
			return nil, err
		}
	}
	for ci, c := range classes {
		if !delta[ci] {
			continue
		}
		d := in.Demands[c.Flow]
		if d <= 0 {
			continue
		}
		terms := []lp.Term{{Var: phi, Coeff: d}}
		for _, tid := range c.Avail {
			terms = append(terms, lp.Term{Var: tunnelVar[tid], Coeff: 1})
		}
		if _, err := prob.AddConstraint(terms, lp.GE, d, "cov"); err != nil {
			return nil, err
		}
	}
	if err := prob.AddUpperBound(phi, phiCap+1e-7, "phi<=phi*"); err != nil {
		return nil, err
	}
	// Secondary objective: maximize the probability-weighted satisfied
	// fraction across ALL significant classes (selected or not) — i.e. the
	// expected availability itself. Protection beyond the beta-selected
	// classes is free whenever capacity allows, and a production TE system
	// takes it; a plain per-flow satisfaction term would happily
	// concentrate a flow onto one tunnel and die with its fiber.
	const polishClassFloor = 1e-4 // skip classes too rare to move the objective
	for _, c := range classes {
		d := in.Demands[c.Flow]
		if d <= 0 || c.Prob < polishClassFloor || len(c.Avail) == 0 {
			continue
		}
		s := prob.AddVar(-c.Prob, "s")
		if err := prob.AddUpperBound(s, 1, "s<=1"); err != nil {
			return nil, err
		}
		terms := []lp.Term{{Var: s, Coeff: d}}
		for _, tid := range c.Avail {
			terms = append(terms, lp.Term{Var: tunnelVar[tid], Coeff: -1})
		}
		if _, err := prob.AddConstraint(terms, lp.LE, 0, "sat"); err != nil {
			return nil, err
		}
	}
	start := m.polishSolve.Start()
	sol := prob.SolveBudget(budget)
	m.polishSolve.Stop(start)
	m.observeLP(sol)
	if sol.Status == lp.Truncated {
		return nil, errBudgetExhausted
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("polish LP %v", sol.Status)
	}
	alloc := make(te.Allocation)
	for tid, v := range tunnelVar {
		if x := sol.X[v]; x > 1e-9 {
			alloc[tid] = x
		}
	}
	return alloc, nil
}

// bendersCut is an optimality cut Phi >= sum(coef_i * delta_i) + constant.
type bendersCut struct {
	coef  []float64 // per class; zero entries omitted implicitly
	con   float64
	value float64 // subproblem optimum that produced it (diagnostic)
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
func (o *Optimizer) solveSubproblem(in *te.Input, classes []Class, delta []bool, m optObs, budget *lp.Budget) (*spSolution, error) {
	prob := lp.NewProblem()
	phi := prob.AddVar(1, "phi")
	tunnelVar := make(map[routing.TunnelID]int, len(in.Tunnels.Tunnels))
	for _, t := range in.Tunnels.Tunnels {
		tunnelVar[t.ID] = prob.AddVar(0, "a")
	}
	// Constraint (3): link capacities over pre-established AND new tunnels.
	type capRow struct {
		row int
		cap float64
	}
	var capRows []capRow
	linkTerms := make(map[int][]lp.Term) // linkID -> terms
	for _, t := range in.Tunnels.Tunnels {
		v := tunnelVar[t.ID]
		for _, lid := range t.Links {
			linkTerms[int(lid)] = append(linkTerms[int(lid)], lp.Term{Var: v, Coeff: 1})
		}
	}
	linkIDs := make([]int, 0, len(linkTerms))
	for lid := range linkTerms {
		linkIDs = append(linkIDs, lid)
	}
	sort.Ints(linkIDs)
	for _, lid := range linkIDs {
		c := in.Net.Links[lid].Capacity
		row, err := prob.AddConstraint(linkTerms[lid], lp.LE, c, "cap")
		if err != nil {
			return nil, err
		}
		capRows = append(capRows, capRow{row: row, cap: c})
	}
	// Constraint (4) for selected classes: sum a + d*phi >= d. The per-class
	// term lists are assembled in parallel (tunnelVar is read-only by now);
	// rows are added to the LP in class order so the LP — and the
	// simplex pivot sequence — is identical at every parallelism level.
	type covRow struct {
		class int
		row   int
	}
	covTerms := par.Map(len(classes), o.Parallelism, func(ci int) []lp.Term {
		if !delta[ci] {
			return nil
		}
		d := in.Demands[classes[ci].Flow]
		if d <= 0 {
			return nil
		}
		terms := make([]lp.Term, 0, 1+len(classes[ci].Avail))
		terms = append(terms, lp.Term{Var: phi, Coeff: d})
		for _, tid := range classes[ci].Avail {
			terms = append(terms, lp.Term{Var: tunnelVar[tid], Coeff: 1})
		}
		return terms
	})
	var covRows []covRow
	for ci, terms := range covTerms {
		if terms == nil {
			continue
		}
		row, err := prob.AddConstraint(terms, lp.GE, in.Demands[classes[ci].Flow], "cov")
		if err != nil {
			return nil, err
		}
		covRows = append(covRows, covRow{class: ci, row: row})
	}
	if err := prob.AddUpperBound(phi, 1, "phi<=1"); err != nil {
		return nil, err
	}
	start := m.subSolve.Start()
	sol := prob.SolveBudget(budget)
	m.subSolve.Stop(start)
	m.observeLP(sol)
	if sol.Status == lp.Truncated {
		return nil, errBudgetExhausted
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("subproblem LP %v", sol.Status)
	}
	alloc := make(te.Allocation)
	for tid, v := range tunnelVar {
		if x := sol.X[v]; x > 1e-9 {
			alloc[tid] = x
		}
	}
	// Cut assembly: Phi >= sum_c w_c (delta_c - 1) + [sum_c w_c + sum_e c_e u_e']
	// where w_c = d_f * y_c (y = coverage-row dual >= 0) and the capacity
	// contribution is c_e * dual_e (dual_e <= 0 for LE rows).
	cut := bendersCut{coef: make([]float64, len(classes)), value: sol.X[phi]}
	for _, cr := range covRows {
		y := sol.Duals[cr.row]
		if y < 0 {
			y = 0 // numerical guard; GE-row duals are nonnegative
		}
		w := in.Demands[classes[cr.class].Flow] * y
		cut.coef[cr.class] = w
		cut.con += w // from sum d_f v_{fc} with v = y
	}
	for _, cr := range capRows {
		cut.con += cr.cap * sol.Duals[cr.row] // dual <= 0: subtracts capacity value
	}
	// The cut at the producing delta evaluates to sum w(1-1) + con = con,
	// which must equal the SP optimum by strong duality.
	return &spSolution{alloc: alloc, phi: sol.X[phi], cut: cut}, nil
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
func (o *Optimizer) solveMaster(in *te.Input, classes []Class, cuts []bendersCut, mo optObs, budget *lp.Budget) ([]bool, float64, error) {
	exact := len(classes) <= exactMasterLimit
	m := lp.NewMIP()
	phi := m.AddVar(1, "phi")
	deltaVars := make([]int, len(classes))
	for i := range classes {
		if exact {
			deltaVars[i] = m.AddBinaryVar(0, "delta")
		} else {
			v := m.AddVar(0, "delta")
			if err := m.AddUpperBound(v, 1, "delta<=1"); err != nil {
				return nil, 0, err
			}
			deltaVars[i] = v
		}
	}
	// Constraint (5): per flow, sum of selected class probabilities >= beta.
	perFlow := make(map[routing.FlowID][]lp.Term)
	for i, c := range classes {
		perFlow[c.Flow] = append(perFlow[c.Flow], lp.Term{Var: deltaVars[i], Coeff: c.Prob})
	}
	flows := make([]routing.FlowID, 0, len(perFlow))
	for f := range perFlow {
		flows = append(flows, f)
	}
	sort.Slice(flows, func(i, j int) bool { return flows[i] < flows[j] })
	for _, f := range flows {
		if _, err := m.AddConstraint(perFlow[f], lp.GE, in.Beta, "beta"); err != nil {
			return nil, 0, err
		}
	}
	// Optimality cuts: Phi - sum coef*delta >= con - sum coef.
	for _, cut := range cuts {
		terms := []lp.Term{{Var: phi, Coeff: 1}}
		rhs := cut.con
		for ci, w := range cut.coef {
			if w == 0 {
				continue
			}
			terms = append(terms, lp.Term{Var: deltaVars[ci], Coeff: -w})
			rhs -= w
		}
		if _, err := m.AddConstraint(terms, lp.GE, rhs, "cut"); err != nil {
			return nil, 0, err
		}
	}
	if err := m.AddUpperBound(phi, 1, "phi<=1"); err != nil {
		return nil, 0, err
	}
	if exact {
		start := mo.masterSolve.Start()
		sol := m.SolveMIP(lp.MIPOptions{MaxNodes: o.MasterNodes, Budget: budget})
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
		delta := make([]bool, len(classes))
		for i, v := range deltaVars {
			delta[i] = sol.X[v] > 0.5
		}
		return delta, sol.X[phi], nil
	}
	// Relaxation lower bound + greedy rounding.
	start := mo.masterSolve.Start()
	sol := m.Problem.SolveBudget(budget)
	mo.masterSolve.Stop(start)
	mo.observeLP(sol)
	if sol.Status == lp.Truncated {
		return nil, 0, errBudgetExhausted
	}
	if sol.Status != lp.Optimal {
		return nil, 0, fmt.Errorf("master relaxation %v", sol.Status)
	}
	delta := greedyRound(in.Beta, classes, cuts)
	return delta, sol.X[phi], nil
}

// greedyRound builds a feasible delta: per flow, deselect the classes that
// carry the largest cut weights (they force Phi up) while keeping the
// selected probability mass at or above beta.
func greedyRound(beta float64, classes []Class, cuts []bendersCut) []bool {
	weight := make([]float64, len(classes))
	for _, cut := range cuts {
		for i, w := range cut.coef {
			if w > weight[i] {
				weight[i] = w
			}
		}
	}
	delta := make([]bool, len(classes))
	byFlow := make(map[routing.FlowID][]int)
	mass := make(map[routing.FlowID]float64)
	for i := range delta {
		delta[i] = true
		byFlow[classes[i].Flow] = append(byFlow[classes[i].Flow], i)
		mass[classes[i].Flow] += classes[i].Prob
	}
	for f, idxs := range byFlow {
		order := append([]int(nil), idxs...)
		sort.Slice(order, func(a, b int) bool { return weight[order[a]] > weight[order[b]] })
		remaining := mass[f]
		for _, i := range order {
			if weight[i] <= 0 {
				break // the rest are free to keep selected
			}
			if remaining-classes[i].Prob >= beta {
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
	if err := in.Validate(); err != nil {
		return nil, err
	}
	classes := BuildClasses(in.Tunnels, in.Scenarios)
	m := lp.NewMIP()
	phi := m.AddVar(1, "phi")
	tunnelVar := make(map[routing.TunnelID]int)
	for _, t := range in.Tunnels.Tunnels {
		tunnelVar[t.ID] = m.AddVar(0, "a")
	}
	lVars := make([]int, len(classes))
	dVars := make([]int, len(classes))
	for i := range classes {
		lVars[i] = m.AddVar(0, "l")
		if err := m.AddUpperBound(lVars[i], 1, "l<=1"); err != nil {
			return nil, err
		}
		dVars[i] = m.AddBinaryVar(0, "delta")
	}
	// (3) capacity, in deterministic link order
	linkTerms := make(map[int][]lp.Term)
	for _, t := range in.Tunnels.Tunnels {
		v := tunnelVar[t.ID]
		for _, lid := range t.Links {
			linkTerms[int(lid)] = append(linkTerms[int(lid)], lp.Term{Var: v, Coeff: 1})
		}
	}
	exactLinkIDs := make([]int, 0, len(linkTerms))
	for lid := range linkTerms {
		exactLinkIDs = append(exactLinkIDs, lid)
	}
	sort.Ints(exactLinkIDs)
	for _, lid := range exactLinkIDs {
		if _, err := m.AddConstraint(linkTerms[lid], lp.LE, in.Net.Links[lid].Capacity, "cap"); err != nil {
			return nil, err
		}
	}
	for i, c := range classes {
		d := in.Demands[c.Flow]
		// (4): sum a >= (1 - l) d  <=>  sum a + d*l >= d
		terms := []lp.Term{{Var: lVars[i], Coeff: d}}
		for _, tid := range c.Avail {
			terms = append(terms, lp.Term{Var: tunnelVar[tid], Coeff: 1})
		}
		if _, err := m.AddConstraint(terms, lp.GE, d, "cov"); err != nil {
			return nil, err
		}
		// (6): Phi >= l - 1 + delta
		if _, err := m.AddConstraint([]lp.Term{
			{Var: phi, Coeff: 1}, {Var: lVars[i], Coeff: -1}, {Var: dVars[i], Coeff: -1},
		}, lp.GE, -1, "phibound"); err != nil {
			return nil, err
		}
	}
	// (5), flows in deterministic order
	perFlow := make(map[routing.FlowID][]lp.Term)
	for i, c := range classes {
		perFlow[c.Flow] = append(perFlow[c.Flow], lp.Term{Var: dVars[i], Coeff: c.Prob})
	}
	exactFlows := make([]routing.FlowID, 0, len(perFlow))
	for f := range perFlow {
		exactFlows = append(exactFlows, f)
	}
	sort.Slice(exactFlows, func(i, j int) bool { return exactFlows[i] < exactFlows[j] })
	for _, f := range exactFlows {
		if _, err := m.AddConstraint(perFlow[f], lp.GE, in.Beta, "beta"); err != nil {
			return nil, err
		}
	}
	if err := m.AddUpperBound(phi, 1, "phi<=1"); err != nil {
		return nil, err
	}
	sol := m.SolveMIP(lp.MIPOptions{MaxNodes: nodeLimit})
	truncated := false
	switch sol.Status {
	case lp.Optimal:
	case lp.StatusIterLimit, lp.Truncated:
		// Node or work limit hit. The incumbent (if any) is feasible but
		// uncertified; a fractional relaxation point is unusable — in that
		// case surface a typed Truncation instead of a generic error so
		// callers can raise the limit or fall back deliberately.
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
	alloc := make(te.Allocation)
	for tid, v := range tunnelVar {
		if x := sol.X[v]; x > 1e-9 {
			alloc[tid] = x
		}
	}
	res := &Result{Alloc: alloc, Phi: sol.X[phi], Selected: make([]bool, len(classes)), Truncated: truncated}
	for i, v := range dVars {
		res.Selected[i] = sol.X[v] > 0.5
	}
	res.LB, res.UB = res.Phi, res.Phi
	return res, nil
}

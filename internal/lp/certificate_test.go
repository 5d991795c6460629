package lp

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// Certify checks, by LP duality alone and without trusting anything about
// how sol was computed, that sol is an optimal solution of p:
//
//   - primal feasibility: every row and every variable bound holds;
//   - dual feasibility: row duals have the sign their operator allows, and
//     each reduced cost z_j = c_j - y . A_j has the sign the bound x_j sits
//     on allows (>= 0 unless x_j is at its upper bound, <= 0 unless it is at
//     its lower one; a fixed variable allows both);
//   - complementary slackness: a row with slack has a zero dual (variables
//     are covered by the sign rule above);
//   - no duality gap: c.x = b.y + sum_j z_j * (the bound z_j's sign selects),
//     which for the default lower bound 0 is b.y + u.z, within 1e-7
//     relative.
func Certify(p *Problem, sol *Solution) error {
	const tol = 1e-7
	if len(sol.X) != p.numVars || len(sol.Duals) != len(p.constraints) {
		return fmt.Errorf("solution is %d vars x %d duals, problem %d x %d", len(sol.X), len(sol.Duals), p.numVars, len(p.constraints))
	}
	z := slices.Clone(p.objective)
	primal, dual := 0.0, 0.0
	for i, c := range p.constraints {
		y := sol.Duals[i]
		act := 0.0
		for _, t := range c.Terms {
			act += t.Coeff * sol.X[t.Var]
			z[t.Var] -= y * t.Coeff
		}
		slack, scale := c.RHS-act, tol*(1+math.Abs(c.RHS))
		switch {
		case c.Op != GE && slack < -scale, c.Op != LE && slack > scale:
			return fmt.Errorf("row %d: activity %v %v rhs %v", i, act, c.Op, c.RHS)
		case c.Op == LE && y > tol, c.Op == GE && y < -tol:
			return fmt.Errorf("row %d: dual %v has the wrong sign for %v", i, y, c.Op)
		case math.Abs(y*slack) > scale:
			return fmt.Errorf("row %d: dual %v on a row with slack %v", i, y, slack)
		}
		dual += c.RHS * y
	}
	for j, x := range sol.X {
		lo, up := p.lower[j], p.upper[j]
		if math.IsNaN(x) || x < lo-tol || x > up+tol {
			return fmt.Errorf("x[%d] = %v outside [%v, %v]", j, x, lo, up)
		}
		if x > lo+tol && z[j] > tol || x < up-tol && z[j] < -tol {
			return fmt.Errorf("x[%d] = %v in [%v, %v] has reduced cost %v", j, x, lo, up, z[j])
		}
		primal += p.objective[j] * x
		switch {
		case z[j] > 0:
			dual += z[j] * lo
		case !math.IsInf(up, 1): // an infinite bound only passed with z ~ 0
			dual += z[j] * up
		}
	}
	if gap := math.Abs(primal - dual); gap > tol*(1+math.Abs(primal)) {
		return fmt.Errorf("duality gap: c.x = %v, dual objective %v", primal, dual)
	}
	if math.Abs(primal-sol.Objective) > tol*(1+math.Abs(primal)) {
		return fmt.Errorf("reported objective %v, c.x = %v", sol.Objective, primal)
	}
	return nil
}

// certify fails the test unless an Optimal sol carries a valid certificate
// (other statuses claim nothing to certify), and returns sol.
func certify(t testing.TB, p *Problem, sol *Solution) *Solution {
	t.Helper()
	if sol.Status == Optimal {
		if err := Certify(p, sol); err != nil {
			t.Fatalf("certificate: %v", err)
		}
	}
	return sol
}

// certifyMIP checks an Optimal branch-and-bound incumbent: integral on the
// binaries, and an LP optimum (with the certificate of the node LP that
// produced it) once every binary is fixed at its value.
func certifyMIP(t testing.TB, m *MIP, sol *Solution) *Solution {
	t.Helper()
	if sol.Status != Optimal {
		return sol
	}
	fixed := *m.Problem
	fixed.lower, fixed.upper = slices.Clone(m.lower), slices.Clone(m.upper)
	for v := range m.binary {
		r := math.Round(sol.X[v])
		if math.Abs(sol.X[v]-r) > 1e-6 {
			t.Fatalf("binary x[%d] = %v", v, sol.X[v])
		}
		fixed.lower[v], fixed.upper[v] = r, r
	}
	return certify(t, &fixed, sol)
}

func TestCertifyRejects(t *testing.T) {
	// min -x - y s.t. x + y <= 10, x <= 6 (a bound): optimum -10.
	p := NewProblem()
	x := p.AddVar(-1)
	p.AddVar(-1)
	p.AddUpperBound(x, 6)
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, LE, 10)
	good := certify(t, p, p.Solve())
	for name, bad := range map[string]Solution{
		"infeasible row":   {X: []float64{6, 5}, Duals: []float64{-1}, Objective: -11},
		"outside bound":    {X: []float64{7, 3}, Duals: []float64{-1}, Objective: -10},
		"suboptimal":       {X: []float64{0, 0}, Duals: []float64{0}, Objective: 0},
		"wrong dual sign":  {X: good.X, Duals: []float64{1}, Objective: -10},
		"gap":              {X: good.X, Duals: []float64{-2}, Objective: -10},
		"wrong objective":  {X: good.X, Duals: good.Duals, Objective: -9},
		"slack with price": {X: []float64{1, 1}, Duals: []float64{-1}, Objective: -2},
	} {
		if err := Certify(p, &bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

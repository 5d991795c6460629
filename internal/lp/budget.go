package lp

import (
	"sync/atomic"
	"time"
)

// Budget is a cooperative compute budget shared by every layer of the solve
// stack. The TE period is a hard deadline: a solve that overruns it is as bad
// as no solve at all, so every solver loop in this repository checks its
// budget at pivot / branch-and-bound-node / Benders-iteration granularity and
// returns its best incumbent (Status == Truncated) instead of running on.
//
// A budget has two independent limits:
//
//   - Deterministic work units. One unit is one simplex pivot, one
//     branch-and-bound node, or one Benders iteration — quantities that are a
//     pure function of the input, so two runs with equal budgets consume them
//     identically and truncate at exactly the same point. This is what keeps
//     seeded replays bit-identical (internal/core's anytime tests pin it).
//
//   - An optional wall-clock deadline. Production controllers set it from the
//     TE period as a safety net against pathologies the unit model does not
//     capture (cache effects, contention). Crossing it is inherently
//     nondeterministic, so deterministic experiments use units only.
//
// A nil *Budget is the "unlimited" state: every method no-ops and Spend
// always reports true, mirroring the nil-*obs.Registry idiom, so solver code
// threads a possibly-nil budget without branching.
//
// Budgets are concurrency-safe (atomics), so one budget can back a solve
// whose sub-stages fan out; in the current optimizer all unit spending
// happens in serial sections, which is what makes equal budgets reproduce
// bit-identical plans at every parallelism setting.
type Budget struct {
	limited   bool
	remaining atomic.Int64
	spent     atomic.Int64
	deadline  time.Time
}

// NewBudget returns a budget of the given deterministic work units.
// units <= 0 means no unit limit (useful for deadline-only budgets).
func NewBudget(units int64) *Budget {
	b := &Budget{}
	if units > 0 {
		b.limited = true
		b.remaining.Store(units)
	}
	return b
}

// WithTimeout attaches a deadline of now+d (no deadline when d <= 0) and
// returns the budget.
func (b *Budget) WithTimeout(d time.Duration) *Budget {
	if d > 0 {
		b.deadline = time.Now().Add(d)
	}
	return b
}

// Spend consumes n work units and reports whether work may continue. Once it
// returns false — the unit allowance is gone or the deadline has passed — it
// keeps returning false, so callers can treat it as a cancellation check.
func (b *Budget) Spend(n int64) bool {
	if b == nil {
		return true
	}
	b.spent.Add(n)
	if b.limited && b.remaining.Add(-n) < 0 {
		return false
	}
	return b.deadline.IsZero() || !time.Now().After(b.deadline)
}

// Spent returns the total work units consumed so far.
func (b *Budget) Spent() int64 {
	if b == nil {
		return 0
	}
	return b.spent.Load()
}

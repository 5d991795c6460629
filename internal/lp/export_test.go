package lp

import "sync"

// CaptureSolves runs fn with every solve finished inside it — from any
// package, on any goroutine — appended to the returned slices. Not safe to
// nest or to run beside other solves.
func CaptureSolves(fn func()) (problems []*Problem, solutions []*Solution) {
	var mu sync.Mutex
	solveHook = func(p *Problem, sol *Solution) {
		mu.Lock()
		defer mu.Unlock()
		problems, solutions = append(problems, p), append(solutions, sol)
	}
	defer func() { solveHook = nil }()
	fn()
	return problems, solutions
}

// Package a plants one case of each kind a name match misses, for the
// program guard's own test.
package a

import "container/heap"

// Reader's Count is read by the program.
type Reader struct{ Count int }

// Writer's Count is only written, though Reader.Count shares its name.
type Writer struct{ Count int }

// Acc's Sum is written only by +=.
type Acc struct{ Sum float64 }

// Add adds v to the sum.
func (a *Acc) Add(v float64) { a.Sum += v }

// Called's Run has a program caller.
type Called struct{}

// Run does nothing.
func (Called) Run() {}

// Uncalled's Run has none, though Called.Run shares its name.
type Uncalled struct{}

// Run does nothing.
func (Uncalled) Run() {}

// Options is an option struct: Level is set only to a constant in this
// package, Name by the program and Width by the root package.
type Options struct {
	Level int
	Name  string
	Width int
}

// DefaultOptions returns the defaults.
func DefaultOptions() Options { return Options{Level: 3} }

// key is a map key: comparing keys reads its fields.
type key struct{ x, y int }

var seen = map[key]bool{}

// Mark records (x, y) and reports whether it was new.
func Mark(x, y int) bool {
	k := key{x, y}
	fresh := !seen[k]
	seen[k] = true
	return fresh
}

// pq is a heap.Interface: container/heap calls its methods.
type pq []int

func (q pq) Len() int           { return len(q) }
func (q pq) Less(i, j int) bool { return q[i] < q[j] }
func (q pq) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x any)        { *q = append(*q, x.(int)) }
func (q *pq) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// Smallest returns the least of xs.
func Smallest(xs []int) int {
	q := pq(xs)
	heap.Init(&q)
	return heap.Pop(&q).(int)
}

// Oracle has no program caller; the guard's test lists it as an
// exception, so what it calls counts as called.
func Oracle() int { return helper() }

func helper() int { return 1 }

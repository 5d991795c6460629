package par

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"prete/internal/obs"
)

func TestLimit(t *testing.T) {
	if got := Limit(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Limit(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Limit(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Limit(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	for _, p := range []int{1, 2, 7} {
		if got := Limit(p); got != p {
			t.Fatalf("Limit(%d) = %d", p, got)
		}
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, p := range []int{1, 2, 8, 0} {
		const n = 257
		counts := make([]int32, n)
		ForEach(n, p, func(i int) { atomic.AddInt32(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("parallelism %d: index %d ran %d times", p, i, c)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	ran := false
	ForEach(0, 4, func(int) { ran = true })
	ForEach(-1, 4, func(int) { ran = true })
	if ran {
		t.Fatal("fn ran for n <= 0")
	}
}

func TestMapOrderIndependentOfParallelism(t *testing.T) {
	square := func(i int) (int, error) { return i * i, nil }
	want, err := MapErr(100, 1, square)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 8, 0} {
		got, err := MapErr(100, p, square)
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("parallelism %d: out[%d] = %d, want %d", p, i, got[i], want[i])
			}
		}
	}
}

func TestMapErrReturnsLowestIndexError(t *testing.T) {
	for _, p := range []int{1, 3, 8} {
		_, err := MapErr(20, p, func(i int) (int, error) {
			if i == 7 || i == 13 {
				return 0, fmt.Errorf("task %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "task 7 failed" {
			t.Fatalf("parallelism %d: err = %v, want lowest-index task 7", p, err)
		}
	}
	out, err := MapErr(5, 2, func(i int) (int, error) { return i + 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i+1 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestSumVectorsOrderFixed(t *testing.T) {
	partials := [][]float64{
		{0.1, 0.2},
		nil, // skipped task
		{0.3, 0.4},
	}
	got := SumVectors(partials, 2)
	// Accumulate the same way SumVectors does (runtime float adds in task
	// order) so the comparison is exact.
	want0, want1 := 0.0, 0.0
	for _, p := range partials {
		if p == nil {
			continue
		}
		want0 += p[0]
		want1 += p[1]
	}
	if got[0] != want0 || got[1] != want1 {
		t.Fatalf("SumVectors = %v, want [%v %v]", got, want0, want1)
	}
}

// TestForEachMetrics checks the pool's package-level instrumentation: task
// and batch counts at serial and parallel limits, queue-wait samples per
// task, and that results are untouched by metric collection.
func TestForEachMetrics(t *testing.T) {
	defer SetMetrics(nil)
	for _, limit := range []int{1, 4} {
		reg := obs.NewRegistry()
		SetMetrics(reg)
		const n = 9
		var ran atomic.Int64
		ForEach(n, limit, func(i int) { ran.Add(1) })
		if ran.Load() != n {
			t.Fatalf("limit %d: ran %d tasks, want %d", limit, ran.Load(), n)
		}
		if got := reg.Counter("par.batches").Value(); got != 1 {
			t.Errorf("limit %d: batches = %d, want 1", limit, got)
		}
		if got := reg.Counter("par.tasks").Value(); got != n {
			t.Errorf("limit %d: tasks = %d, want %d", limit, got, n)
		}
		if got := reg.Timer("par.queue_wait").Count(); got != n {
			t.Errorf("limit %d: queue-wait samples = %d, want %d", limit, got, n)
		}
	}
}

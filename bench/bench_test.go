package main

import (
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload at tiny op counts and holds the harness to
// BENCHMARK.json: the file's limits, the workload list, and that each mode
// emits exactly the metrics the file names, with their units. The traced
// mode runs on the two cheap workloads, which between them record every
// kind of span (epoch and restart).
func TestSmoke(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, the contract allows 2 to 8", n)
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, the contract allows 1 to 16", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 1 to 128", n)
	}
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{bf.EndToEnd, bf.PerLayer} {
		for _, d := range defs {
			if !nameRE.MatchString(d.Name) {
				t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", d.Name)
			}
			if seen[d.Name] {
				t.Errorf("metric name %q is used twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, specs[i].name)
		}
	}

	for _, sp := range specs {
		traced := []bool{false}
		if sp.name == "quiet-b4" || sp.name == "restart-b4" {
			traced = append(traced, true)
		}
		for _, tr := range traced {
			sp, tr := sp, tr
			name := sp.name
			if tr {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				out, err := run(runConfig{spec: sp, seed: 2025, seconds: 1, traced: tr,
					stateRoot: t.TempDir(), setups: 1, smoke: true})
				if err != nil {
					t.Fatal(err)
				}
				if out.failed != 0 || out.attempted < 1 {
					t.Errorf("attempted %d, failed %d: %v", out.attempted, out.failed, out.notes)
				}
				want := bf.EndToEnd
				if tr {
					want = bf.PerLayer
				}
				if len(out.metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(out.metrics), len(want))
				}
				for _, d := range want {
					m, ok := out.metrics[d.Name]
					if !ok {
						t.Errorf("metric %s is not emitted", d.Name)
					} else if m.Unit != d.Unit {
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", d.Name, m.Unit, d.Unit)
					}
				}
				if !tr {
					for _, d := range want {
						if out.metrics[d.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s is %v, it must never be 0", d.Name, out.metrics[d.Name].Value)
						}
					}
					return
				}
				if len(out.spans) == 0 {
					t.Fatal("traced run recorded no spans")
				}
				if err := checkSpans(out.spans); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Better: "lower", Bound: 0.10}
	tight := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name string
		a, b []float64
		def  metricDef
		want string
	}{
		{"same", tight, tight, lower, "ok"},
		{"worse beyond bound", tight, []float64{115, 116, 114, 115, 117}, lower, "regressed"},
		{"worse within bound", tight, []float64{105, 106, 104, 105, 107}, lower, "ok"},
		{"noisy base", []float64{80, 100, 120, 90, 130}, []float64{100, 101, 99, 100, 102}, lower, "unresolved"},
		{"noisy base, all better", []float64{80, 100, 120, 90, 130}, []float64{50, 51, 49, 50, 52}, lower, "ok"},
		{"higher is better", tight, []float64{85, 86, 84, 85, 87}, metricDef{Better: "higher", Bound: 0.10}, "regressed"},
	} {
		if got := verdict(tc.a, tc.b, tc.def); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestSpanChecks(t *testing.T) {
	good := []span{
		{ID: 0, Parent: -1, Name: "epoch", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 40, End: 90},
	}
	if err := checkSpans(good); err != nil {
		t.Errorf("well-formed tree rejected: %v", err)
	}
	if self := selfTimes(good); self[0] != 20 || self[1] != 30 || self[2] != 50 {
		t.Errorf("self times %v, want [20 30 50]", self)
	}
	escaped := append([]span(nil), good...)
	escaped[2].End = 120
	if checkSpans(escaped) == nil {
		t.Error("a child ending after its parent was accepted")
	}
	overfull := append([]span(nil), good...)
	overfull[1].End = 95 // children now cover more than the parent
	if checkSpans(overfull) == nil {
		t.Error("negative self time was accepted")
	}
}

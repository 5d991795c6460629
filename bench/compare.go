package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// record is one run as -record appends it: one JSON object per line.
type record struct {
	Workload string      `json:"workload"`
	Seed     uint64      `json:"seed"`
	Trace    int         `json:"trace"`
	Env      environment `json:"env"`
	Result   result      `json:"result"`
}

// appendRecord appends one run to a result-set file.
func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// benchmarkFile is the part of BENCHMARK.json the comparison needs.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// quartiles returns Q1, the median and Q3 as Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// what the acceptance procedure uses. Fewer than two values have no spread.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := sortedCopy(values)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// verdict judges set B against set A for one (workload, metric): regressed
// when B's median is worse than A's by more than the bound; unresolved when
// A's own quartile spread is wider than the bound, unless every run of B
// reads better than every run of A; ok otherwise.
func verdict(a, b []float64, def metricDef) string {
	aq1, am, aq3 := quartiles(a)
	_, bm, _ := quartiles(b)
	if am == 0 {
		return "unresolved"
	}
	worse := (bm - am) / am
	if def.Better == "higher" {
		worse = -worse
	}
	if spread := (aq3 - aq1) / am; spread > def.Bound {
		sa, sb := sortedCopy(a), sortedCopy(b)
		allBetter := sb[len(sb)-1] < sa[0]
		if def.Better == "higher" {
			allBetter = sb[0] > sa[len(sa)-1]
		}
		if allBetter {
			return "ok"
		}
		return "unresolved"
	}
	if worse > def.Bound {
		return "regressed"
	}
	return "ok"
}

// compareFiles prints, per workload and metric, both sets' medians and
// quartiles, the change with its base, the bound, and the verdict. Metrics
// without a bound (the per-layer ones) get no verdict.
func compareFiles(w io.Writer, benchmarkPath, pathA, pathB string) (regressed bool, err error) {
	bf, err := readBenchmarkFile(benchmarkPath)
	if err != nil {
		return false, err
	}
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	collect := func(recs []record) map[string]map[string][]float64 {
		out := map[string]map[string][]float64{}
		for _, r := range recs {
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Result.Metrics {
				out[r.Workload][name] = append(out[r.Workload][name], m.Value)
			}
		}
		return out
	}
	va, vb := collect(a), collect(b)
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3] (n)\tB median [q1, q3] (n)\tB vs A\tbound\tverdict")
	row := func(wl string, def metricDef, judged bool) {
		xa, xb := va[wl][def.Name], vb[wl][def.Name]
		if len(xa) == 0 || len(xb) == 0 {
			return
		}
		aq1, am, aq3 := quartiles(xa)
		bq1, bm, bq3 := quartiles(xb)
		change, bound, v := "n/a", "-", "-"
		if am != 0 {
			change = fmt.Sprintf("%+.1f%% of %.4g", 100*(bm-am)/am, am)
		}
		if judged {
			bound = fmt.Sprintf("%.0f%% %s", 100*def.Bound, def.Better)
			v = verdict(xa, xb, def)
			regressed = regressed || v == "regressed"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g] (%d)\t%.4g [%.4g, %.4g] (%d)\t%s\t%s\t%s\n",
			wl, def.Name, def.Unit, am, aq1, aq3, len(xa), bm, bq1, bq3, len(xb), change, bound, v)
	}
	for _, wl := range bf.Workloads {
		for _, def := range bf.EndToEnd {
			row(wl.Name, def, true)
		}
		for _, def := range bf.PerLayer {
			row(wl.Name, def, false)
		}
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	// Failed operations are judged on their own: any increase is a regression.
	fails := func(recs []record) (failed, attempted int) {
		for _, r := range recs {
			failed += r.Result.Failed
			attempted += r.Result.Attempted
		}
		return
	}
	fa, na := fails(a)
	fb, nb := fails(b)
	fmt.Fprintf(w, "failed ops: A %d of %d, B %d of %d\n", fa, na, fb, nb)
	if na > 0 && nb > 0 && float64(fb)/float64(nb) > float64(fa)/float64(na) {
		regressed = true
	}
	var names []string
	for wl := range vb {
		if _, ok := va[wl]; !ok {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	for _, wl := range names {
		fmt.Fprintf(w, "workload %s is only in %s\n", wl, pathB)
	}
	return regressed, nil
}

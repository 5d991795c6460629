package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call from the harness into a layer. The harness drives
// the program from one goroutine, so spans nest strictly: a span's children
// are the spans begun before it ended.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1: an op's root span
	Layer  string `json:"layer"`  // module name, or "harness" for an op's root
	Name   string `json:"name"`
	Op     int    `json:"op"` // the epoch, table or restart this span belongs to
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Derived marks a span whose interval the harness did not observe as a
	// call: its length is a registry timer's delta over the parent call
	// (the LP time inside a solve), laid at the parent's start.
	Derived bool `json:"derived,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps a traced run's spans in memory. A nil recorder records
// nothing, which is how the untraced run stays free of tracing cost.
type recorder struct {
	origin time.Time
	spans  []span
	stack  []int
	op     int
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span under the innermost open one and returns its id.
func (r *recorder) begin(layer, name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Op: r.op,
		Start: int64(time.Since(r.origin))})
	r.stack = append(r.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.origin))
	if n := len(r.stack); n == 0 || r.stack[n-1] != id {
		panic(fmt.Sprintf("bench: span %d ended out of order", id))
	}
	r.stack = r.stack[:len(r.stack)-1]
	r.spans[id].End = now
}

// derived adds a closed child of length d under the open span parent.
func (r *recorder) derived(parent int, layer, name string, d time.Duration) {
	if r == nil || d <= 0 {
		return
	}
	p := r.spans[parent]
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Layer: layer, Name: name, Op: p.Op,
		Start: p.Start, End: p.Start + int64(d), Derived: true})
}

// nextOp advances the op id stamped into subsequent spans.
func (r *recorder) nextOp() {
	if r != nil {
		r.op++
	}
}

// selfTimes returns every span's self time: its duration minus its
// children's. Children never overlap each other (one goroutine), so the
// subtraction is exact.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// checkSpans verifies the span tree is well-formed: parents exist and
// precede their children, children lie inside their parents, self times
// are non-negative, and per op the self times add up to the root span.
func checkSpans(spans []span) error {
	self := selfTimes(spans)
	rootDur := map[int]int64{}
	selfSum := map[int]int64{}
	for i, s := range spans {
		if s.ID != i {
			return fmt.Errorf("span %d carries id %d", i, s.ID)
		}
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent >= i {
			return fmt.Errorf("span %d (%s) names parent %d, which does not precede it", i, s.Name, s.Parent)
		}
		if s.Parent >= 0 {
			p := spans[s.Parent]
			if s.Start < p.Start || s.End > p.End {
				return fmt.Errorf("span %d (%s) leaves its parent %d (%s)", i, s.Name, p.ID, p.Name)
			}
			if s.Op != p.Op {
				return fmt.Errorf("span %d (%s) is in op %d, its parent in op %d", i, s.Name, s.Op, p.Op)
			}
		} else {
			rootDur[s.Op] += s.dur()
		}
		if self[i] < 0 {
			return fmt.Errorf("span %d (%s) has negative self time %d ns", i, s.Name, self[i])
		}
		selfSum[s.Op] += self[i]
	}
	for op, d := range rootDur {
		if diff := float64(selfSum[op] - d); diff > 0.02*float64(d) || -diff > 0.02*float64(d) {
			return fmt.Errorf("op %d: self times sum to %d ns, the root span is %d ns", op, selfSum[op], d)
		}
	}
	return nil
}

// layerSelf sums self time per layer within each op: layerSelf[layer][op].
// Ops are numbered densely from the first span's op.
func layerSelf(spans []span) (map[string][]float64, []float64) {
	if len(spans) == 0 {
		return nil, nil
	}
	first, last := spans[0].Op, spans[len(spans)-1].Op
	n := last - first + 1
	self := selfTimes(spans)
	byLayer := map[string][]float64{}
	total := make([]float64, n)
	for i, s := range spans {
		row := byLayer[s.Layer]
		if row == nil {
			row = make([]float64, n)
			byLayer[s.Layer] = row
		}
		row[s.Op-first] += float64(self[i])
		total[s.Op-first] += float64(self[i])
	}
	return byLayer, total
}

// traceFile is what a traced run leaves in bench/out.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     uint64      `json:"seed"`
	Env      environment `json:"env"`
	Spans    []span      `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

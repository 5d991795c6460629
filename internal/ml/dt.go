package ml

import (
	"fmt"
	"math"
	"sort"

	"prete/internal/optical"
	"prete/internal/trace"
)

// DecisionTree is the CART baseline of Table 5: it "takes the features of
// degradation to make the prediction" — the four critical features plus
// fiber length, without the learned embeddings that let the NN exploit
// fiber identity.
type DecisionTree struct {
	root *dtNode
}

// Conservative tree growth limits.
const (
	dtMaxDepth       = 6
	dtMinLeafSamples = 10
)

type dtNode struct {
	// leaf
	prob float64
	leaf bool
	// split
	feature     int
	threshold   float64
	left, right *dtNode
}

const dtNumFeatures = 5

func dtFeatures(f optical.Features) [dtNumFeatures]float64 {
	return [dtNumFeatures]float64{
		float64(f.HourOfDay), f.DegreeDB, f.GradientDB, f.Fluctuation, f.LengthKm,
	}
}

// TrainDT fits a CART tree with Gini impurity splits.
func TrainDT(examples []trace.LabeledExample) (*DecisionTree, error) {
	if len(examples) == 0 {
		return nil, fmt.Errorf("ml: empty training set")
	}
	type row struct {
		x [dtNumFeatures]float64
		y bool
	}
	rows := make([]row, len(examples))
	for i, ex := range examples {
		rows[i] = row{x: dtFeatures(ex.Features), y: ex.Failed}
	}
	var build func(rows []row, depth int) *dtNode
	build = func(rows []row, depth int) *dtNode {
		pos := 0
		for _, r := range rows {
			if r.y {
				pos++
			}
		}
		prob := float64(pos) / float64(len(rows))
		if depth >= dtMaxDepth || len(rows) < 2*dtMinLeafSamples || pos == 0 || pos == len(rows) {
			return &dtNode{leaf: true, prob: prob}
		}
		bestFeature, bestThresh, bestGini := -1, 0.0, giniOf(pos, len(rows))
		for fIdx := 0; fIdx < dtNumFeatures; fIdx++ {
			sorted := make([]row, len(rows))
			copy(sorted, rows)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i].x[fIdx] < sorted[j].x[fIdx] })
			leftPos := 0
			for i := 0; i < len(sorted)-1; i++ {
				if sorted[i].y {
					leftPos++
				}
				if sorted[i].x[fIdx] == sorted[i+1].x[fIdx] {
					continue
				}
				nl := i + 1
				nr := len(sorted) - nl
				if nl < dtMinLeafSamples || nr < dtMinLeafSamples {
					continue
				}
				g := (float64(nl)*giniOf(leftPos, nl) + float64(nr)*giniOf(pos-leftPos, nr)) / float64(len(sorted))
				if g < bestGini-1e-12 {
					bestGini = g
					bestFeature = fIdx
					bestThresh = (sorted[i].x[fIdx] + sorted[i+1].x[fIdx]) / 2
				}
			}
		}
		if bestFeature < 0 {
			return &dtNode{leaf: true, prob: prob}
		}
		var left, right []row
		for _, r := range rows {
			if r.x[bestFeature] <= bestThresh {
				left = append(left, r)
			} else {
				right = append(right, r)
			}
		}
		return &dtNode{
			feature:   bestFeature,
			threshold: bestThresh,
			left:      build(left, depth+1),
			right:     build(right, depth+1),
		}
	}
	return &DecisionTree{root: build(rows, 0)}, nil
}

func giniOf(pos, n int) float64 {
	if n == 0 {
		return 0
	}
	p := float64(pos) / float64(n)
	return 2 * p * (1 - p)
}

// PredictProb implements Predictor.
func (t *DecisionTree) PredictProb(f optical.Features) float64 {
	x := dtFeatures(f)
	node := t.root
	for !node.leaf {
		if x[node.feature] <= node.threshold {
			node = node.left
		} else {
			node = node.right
		}
	}
	return node.prob
}

// Name implements Predictor.
func (t *DecisionTree) Name() string { return "DT" }

// Depth returns the tree's maximum depth (for inspection/tests).
func (t *DecisionTree) Depth() int {
	var depth func(n *dtNode) int
	depth = func(n *dtNode) int {
		if n.leaf {
			return 0
		}
		l, r := depth(n.left), depth(n.right)
		return 1 + int(math.Max(float64(l), float64(r)))
	}
	return depth(t.root)
}

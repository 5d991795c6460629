package stats

import "fmt"

// Confusion is a binary-classification confusion matrix. The paper's §6.3
// convention is followed: "a fail after degradation" is the positive class.
type Confusion struct {
	TP, FP, TN, FN int
}

// Observe records one prediction/label pair.
func (c *Confusion) Observe(predicted, actual bool) {
	switch {
	case predicted && actual:
		c.TP++
	case predicted && !actual:
		c.FP++
	case !predicted && actual:
		c.FN++
	default:
		c.TN++
	}
}

// Precision returns TP/(TP+FP), or 0 when undefined.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN), or 0 when undefined.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Accuracy returns the fraction of correct predictions.
func (c Confusion) Accuracy() float64 {
	total := c.TP + c.FP + c.TN + c.FN
	if total == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(total)
}

// String renders the matrix compactly for experiment output.
func (c Confusion) String() string {
	return fmt.Sprintf("P=%.2f R=%.2f F1=%.2f Acc=%.2f (TP=%d FP=%d TN=%d FN=%d)",
		c.Precision(), c.Recall(), c.F1(), c.Accuracy(), c.TP, c.FP, c.TN, c.FN)
}

package trace

import (
	"fmt"
	"sort"

	"prete/internal/optical"
	"prete/internal/stats"
)

// DurationsS returns all degradation durations (Fig 4a's sample).
func (t *Trace) DurationsS() []float64 {
	out := make([]float64, len(t.Episodes))
	for i, e := range t.Episodes {
		out[i] = float64(e.DurationS)
	}
	return out
}

// DegradationToCutDelays returns, for every cut that has any preceding
// degradation on the same fiber, the delay from that degradation's onset to
// the cut (Fig 5a's sample). Abrupt cuts with no prior degradation at all
// are skipped.
func (t *Trace) DegradationToCutDelays() []float64 {
	// per-fiber onset lists are already time sorted (Episodes is sorted).
	onsets := make(map[int][]int64)
	for _, e := range t.Episodes {
		onsets[e.Fiber] = append(onsets[e.Fiber], e.OnsetUnixS)
	}
	var out []float64
	for _, c := range t.Cuts {
		lst := onsets[c.Fiber]
		i := sort.Search(len(lst), func(i int) bool { return lst[i] > c.AtUnixS })
		if i == 0 {
			continue
		}
		out = append(out, float64(c.AtUnixS-lst[i-1]))
	}
	return out
}

// EventCounts are Fig 5b's normalized quantities.
type EventCounts struct {
	Degradations    int
	Cuts            int
	PredictableCuts int
}

// Alpha returns the measured fraction of predictable cuts.
func (c EventCounts) Alpha() float64 {
	if c.Cuts == 0 {
		return 0
	}
	return float64(c.PredictableCuts) / float64(c.Cuts)
}

// PCutGivenDeg returns the measured conditional failure probability.
func (c EventCounts) PCutGivenDeg() float64 {
	if c.Degradations == 0 {
		return 0
	}
	return float64(c.PredictableCuts) / float64(c.Degradations)
}

// Counts tallies the trace's events.
func (t *Trace) Counts() EventCounts {
	c := EventCounts{Degradations: len(t.Episodes), Cuts: len(t.Cuts)}
	for _, cut := range t.Cuts {
		if cut.Predictable {
			c.PredictableCuts++
		}
	}
	return c
}

// PerFiberCounts returns degradation and cut counts per fiber — Fig 12a's
// scatter, whose linear fit §6.1 uses to tie p_i to p_d.
func (t *Trace) PerFiberCounts() (degs, cuts []float64) {
	nf := len(t.Net.Fibers)
	degs = make([]float64, nf)
	cuts = make([]float64, nf)
	for _, e := range t.Episodes {
		degs[e.Fiber]++
	}
	for _, c := range t.Cuts {
		cuts[c.Fiber]++
	}
	return degs, cuts
}

// ContingencyTable15Min builds Appendix A.1's table: 15-minute epochs
// cross-tabulated by (degradation present) x (failure present).
func (t *Trace) ContingencyTable15Min() *stats.ContingencyTable {
	const epochS = 900
	horizon := int64(t.Cfg.Days) * 24 * 3600
	epochs := int(horizon / epochS)
	type key struct{ fiber, epoch int }
	deg := make(map[key]bool)
	cut := make(map[key]bool)
	for _, e := range t.Episodes {
		deg[key{e.Fiber, int(e.OnsetUnixS / epochS)}] = true
	}
	for _, c := range t.Cuts {
		cut[key{c.Fiber, int(c.AtUnixS / epochS)}] = true
	}
	tab := stats.NewContingencyTable(2, 2)
	for fi := range t.Net.Fibers {
		for e := 0; e < epochs; e++ {
			k := key{fi, e}
			r, c := 0, 0
			if cut[k] {
				r = 1
			}
			if deg[k] {
				c = 1
			}
			tab.Add(r, c, 1)
		}
	}
	return tab
}

// LabeledExample is one NN training/testing sample.
type LabeledExample struct {
	Features optical.Features
	Failed   bool
}

// Dataset returns all labeled degradation episodes.
func (t *Trace) Dataset() []LabeledExample {
	out := make([]LabeledExample, len(t.Episodes))
	for i, e := range t.Episodes {
		out[i] = LabeledExample{Features: e.Features, Failed: e.LedToCut}
	}
	return out
}

// Split performs the Appendix A.2 train/test split: "the first 80% of each
// fiber's degradation signals as training data and the remaining 20% ... as
// testing data".
func (t *Trace) Split(trainFrac float64) (train, test []LabeledExample, err error) {
	if trainFrac <= 0 || trainFrac >= 1 {
		return nil, nil, fmt.Errorf("trace: train fraction %v out of (0,1)", trainFrac)
	}
	perFiber := make(map[int][]LabeledExample)
	for _, e := range t.Episodes {
		perFiber[e.Fiber] = append(perFiber[e.Fiber], LabeledExample{Features: e.Features, Failed: e.LedToCut})
	}
	fibers := make([]int, 0, len(perFiber))
	for f := range perFiber {
		fibers = append(fibers, f)
	}
	sort.Ints(fibers)
	for _, f := range fibers {
		lst := perFiber[f] // already time ordered (Episodes sorted by onset)
		cutAt := int(float64(len(lst)) * trainFrac)
		train = append(train, lst[:cutAt]...)
		test = append(test, lst[cutAt:]...)
	}
	return train, test, nil
}

// GranularityPoint is one row of Appendix A.8's sweep.
type GranularityPoint struct {
	GranularityS int
	Coverage     float64 // predictable cuts detectable / total cuts
	Occurrence   float64 // predictable cuts detectable / degradations detectable
}

// GranularitySweep evaluates how collection granularity erodes
// predictability: a degradation is detectable at granularity g iff some
// sampling instant k*g falls inside [onset, onset+duration).
func (t *Trace) GranularitySweep(granularitiesS []int) []GranularityPoint {
	out := make([]GranularityPoint, 0, len(granularitiesS))
	totalCuts := len(t.Cuts)
	for _, g := range granularitiesS {
		if g < 1 {
			continue
		}
		degDetected := 0
		predictableDetected := 0
		for _, e := range t.Episodes {
			if sampleLandsIn(e.OnsetUnixS, e.DurationS, g) {
				degDetected++
				if e.LedToCut {
					predictableDetected++
				}
			}
		}
		p := GranularityPoint{GranularityS: g}
		if totalCuts > 0 {
			p.Coverage = float64(predictableDetected) / float64(totalCuts)
		}
		if degDetected > 0 {
			p.Occurrence = float64(predictableDetected) / float64(degDetected)
		}
		out = append(out, p)
	}
	return out
}

func sampleLandsIn(onset int64, duration, g int) bool {
	// first sampling instant >= onset is ceil(onset/g)*g
	gg := int64(g)
	first := ((onset + gg - 1) / gg) * gg
	return first < onset+int64(duration)
}

// LossSeries renders the fiber's transmission loss at the requested
// sampling instants (Fig 1a / Fig 4b). It evaluates the event schedule
// rather than synthesizing every second, so week-long windows are cheap.
func (t *Trace) LossSeries(fiber int, fromS, toS int64, stepS int) ([]optical.Sample, error) {
	if fiber < 0 || fiber >= len(t.Net.Fibers) {
		return nil, fmt.Errorf("trace: fiber %d out of range", fiber)
	}
	if stepS < 1 || toS <= fromS {
		return nil, fmt.Errorf("trace: bad window [%d, %d) step %d", fromS, toS, stepS)
	}
	baseline := t.Net.Fibers[fiber].LengthKm*optical.BaselinePerKmDB + 2.0
	rng := stats.NewRNG(t.Cfg.Seed ^ uint64(fiber)<<32 ^ 0x10551)
	var out []optical.Sample
	for at := fromS; at < toS; at += int64(stepS) {
		excess := t.excessAt(fiber, at)
		noise := rng.NormFloat64() * optical.NoiseSigmaDB
		loss := baseline + excess + noise
		out = append(out, optical.Sample{
			UnixS: at, TxDBm: optical.TxPowerDBm, RxDBm: optical.TxPowerDBm - loss,
			LossDB: loss, ExcessDB: loss - baseline,
			State: optical.Classify(excess),
		})
	}
	return out, nil
}

// excessAt evaluates the scheduled excess loss of a fiber at an instant.
func (t *Trace) excessAt(fiber int, at int64) float64 {
	for _, c := range t.Cuts {
		if c.Fiber == fiber && at >= c.AtUnixS && at < c.AtUnixS+int64(c.RepairS) {
			return optical.CutThresholdDB + 25
		}
	}
	for _, e := range t.Episodes {
		if e.Fiber == fiber && at >= e.OnsetUnixS && at < e.OnsetUnixS+int64(e.DurationS) {
			return e.Features.DegreeDB
		}
	}
	return 0
}

// LostCapacityByRegion returns, per region, the IP capacity (Gbps) lost in
// each cut event — Fig 1b's per-region CDF sample.
func (t *Trace) LostCapacityByRegion() map[string][]float64 {
	out := make(map[string][]float64)
	for _, c := range t.Cuts {
		f := t.Net.Fibers[c.Fiber]
		out[f.Region] = append(out[f.Region], t.Net.LostCapacity(f.ID))
	}
	return out
}

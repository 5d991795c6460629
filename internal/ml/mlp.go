package ml

import (
	"fmt"
	"math"
	"sort"

	"prete/internal/optical"
	"prete/internal/stats"
	"prete/internal/trace"
)

// Predictor estimates the probability that a degradation episode leads to a
// fiber cut in the next TE period (§4.1.1's problem statement).
type Predictor interface {
	// PredictProb returns p_1, the estimated failure probability.
	PredictProb(f optical.Features) float64
	Name() string
}

// PredictLabel applies the paper's decision rule y-hat = argmax(p).
func PredictLabel(p Predictor, f optical.Features) bool {
	return p.PredictProb(f) >= 0.5
}

// minMaxScaler implements Appendix A.2's normalization: "the variables
// degree, gradient, fluctuation, and length are scaled into [0,1] using
// Min-Max normalization".
type minMaxScaler struct {
	min, max [4]float64
}

func fitScaler(examples []trace.LabeledExample) *minMaxScaler {
	s := &minMaxScaler{}
	for i := range s.min {
		s.min[i] = math.Inf(1)
		s.max[i] = math.Inf(-1)
	}
	for _, ex := range examples {
		for i, v := range rawContinuous(ex.Features) {
			s.min[i] = math.Min(s.min[i], v)
			s.max[i] = math.Max(s.max[i], v)
		}
	}
	return s
}

func rawContinuous(f optical.Features) [4]float64 {
	return [4]float64{f.DegreeDB, f.GradientDB, f.Fluctuation, f.LengthKm}
}

func (s *minMaxScaler) scale(f optical.Features) [4]float64 {
	raw := rawContinuous(f)
	var out [4]float64
	for i, v := range raw {
		span := s.max[i] - s.min[i]
		if span <= 0 {
			out[i] = 0
			continue
		}
		x := (v - s.min[i]) / span
		out[i] = math.Max(0, math.Min(1, x))
	}
	return out
}

// categorical vocabulary sizes for the embeddings.
type vocab struct {
	regions map[string]int
	vendors map[string]int
	fibers  int
}

func buildVocab(examples []trace.LabeledExample) vocab {
	v := vocab{regions: map[string]int{}, vendors: map[string]int{}}
	var regionNames, vendorNames []string
	maxFiber := 0
	for _, ex := range examples {
		if _, ok := v.regions[ex.Features.Region]; !ok {
			v.regions[ex.Features.Region] = 0
			regionNames = append(regionNames, ex.Features.Region)
		}
		if _, ok := v.vendors[ex.Features.Vendor]; !ok {
			v.vendors[ex.Features.Vendor] = 0
			vendorNames = append(vendorNames, ex.Features.Vendor)
		}
		if ex.Features.FiberID > maxFiber {
			maxFiber = ex.Features.FiberID
		}
	}
	sort.Strings(regionNames)
	sort.Strings(vendorNames)
	for i, r := range regionNames {
		v.regions[r] = i
	}
	for i, vd := range vendorNames {
		v.vendors[vd] = i
	}
	v.fibers = maxFiber + 1
	return v
}

func (v vocab) regionIdx(r string) int { return v.regions[r] }
func (v vocab) vendorIdx(s string) int { return v.vendors[s] }

// FeatureMask selects which inputs the NN sees; Appendix A.6's ablation
// (Table 8) toggles these.
type FeatureMask struct {
	Time, Degree, Gradient, Fluctuation bool
	Region, FiberID, Vendor             bool
	// Extended enables the §8 future-work indicators (PMD and chromatic
	// dispersion) when the telemetry system collects them.
	Extended bool
}

// AllFeatures enables every input (the NN-all row of Table 8).
func AllFeatures() FeatureMask {
	return FeatureMask{Time: true, Degree: true, Gradient: true, Fluctuation: true,
		Region: true, FiberID: true, Vendor: true}
}

// WithExtended returns the mask with the §8 extended optical indicators
// enabled.
func (m FeatureMask) WithExtended() FeatureMask {
	m.Extended = true
	return m
}

// Without returns the mask with one named feature removed.
func (m FeatureMask) Without(name string) (FeatureMask, error) {
	switch name {
	case "time":
		m.Time = false
	case "degree":
		m.Degree = false
	case "gradient":
		m.Gradient = false
	case "fluctuation":
		m.Fluctuation = false
	case "region":
		m.Region = false
	case "fiberID":
		m.FiberID = false
	case "vendor":
		m.Vendor = false
	case "extended":
		m.Extended = false
	default:
		return m, fmt.Errorf("ml: unknown feature %q", name)
	}
	return m, nil
}

// embedding dimensions (small, per Appendix A.2's dimensionality-reduction
// rationale).
const (
	fiberEmbDim  = 4
	regionEmbDim = 3
	vendorEmbDim = 2
	hourBuckets  = 24
	// extendedDims are the two §8 indicators (PMD, CD), present in the
	// input vector whether or not the mask enables them (zeroed when off)
	// so trained models keep a stable shape.
	extendedDims = 2
	// pmdScale / cdScale normalize the extended indicators into [0, ~1].
	pmdScale = 15.0
	cdScale  = 30.0
)

// NN is the paper's MLP (Fig 9): the first layer aggregates critical
// degradation features, the second mixes in the intrinsic fiber features
// via embeddings, a 2-neuron decoder projects to the two classes, and a
// softmax yields the probability distribution.
type NN struct {
	mask   FeatureMask
	scaler *minMaxScaler
	vocab  vocab

	fiberEmb  *embedding
	regionEmb *embedding
	vendorEmb *embedding
	l1        *linear // critical features -> hidden
	l2        *linear // hidden + intrinsic -> hidden
	// deep holds optional extra hidden layers (§8: "design of an effective
	// deep neural network model"); empty for the paper's vanilla MLP.
	deep    []*linear
	decoder *linear // hidden -> 2
}

// NNConfig tunes training.
type NNConfig struct {
	Epochs int
	Seed   uint64
	Mask   FeatureMask
	// ExtraHidden adds that many extra 64-unit ReLU layers before the
	// decoder — the §8 "more efficient deep model" knob. 0 reproduces the
	// paper's vanilla MLP.
	ExtraHidden int
}

// DefaultNNConfig returns the Appendix A.2 hyperparameters.
func DefaultNNConfig(seed uint64) NNConfig {
	return NNConfig{Epochs: 30, Seed: seed, Mask: AllFeatures()}
}

// TrainNN fits the MLP on the labeled set.
func TrainNN(examples []trace.LabeledExample, cfg NNConfig) (*NN, error) {
	if len(examples) == 0 {
		return nil, fmt.Errorf("ml: empty training set")
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 30
	}
	rng := stats.NewRNG(cfg.Seed)
	n := &NN{mask: cfg.Mask, scaler: fitScaler(examples), vocab: buildVocab(examples)}
	n.fiberEmb = newEmbedding(n.vocab.fibers, fiberEmbDim, rng)
	n.regionEmb = newEmbedding(maxInt(1, len(n.vocab.regions)), regionEmbDim, rng)
	n.vendorEmb = newEmbedding(maxInt(1, len(n.vocab.vendors)), vendorEmbDim, rng)
	critDim := 3 + hourBuckets + extendedDims // degree, gradient, fluctuation + hour one-hot + PMD/CD
	n.l1 = newLinear(critDim, HiddenUnits, rng)
	intrinsicDim := fiberEmbDim + regionEmbDim + vendorEmbDim + 1 // + scaled length
	n.l2 = newLinear(HiddenUnits+intrinsicDim, HiddenUnits, rng)
	for i := 0; i < cfg.ExtraHidden; i++ {
		n.deep = append(n.deep, newLinear(HiddenUnits, HiddenUnits, rng))
	}
	n.decoder = newLinear(HiddenUnits, 2, rng)

	data := Oversample(examples, rng.Split()) // §4.1.1: balance the classes 1:1
	idx := make([]int, len(data))
	for i := range idx {
		idx[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		// shuffle
		for i := len(idx) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			idx[i], idx[j] = idx[j], idx[i]
		}
		for _, i := range idx {
			n.trainStep(data[i], LearnRate)
		}
	}
	return n, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// criticalInput builds the first-layer input vector.
func (n *NN) criticalInput(f optical.Features) []float64 {
	scaled := n.scaler.scale(f)
	x := make([]float64, 3+hourBuckets+extendedDims)
	if n.mask.Degree {
		x[0] = scaled[0]
	}
	if n.mask.Gradient {
		x[1] = scaled[1]
	}
	if n.mask.Fluctuation {
		x[2] = scaled[2]
	}
	if n.mask.Time {
		h := f.HourOfDay
		if h >= 0 && h < hourBuckets {
			x[3+h] = 1
		}
	}
	if n.mask.Extended {
		x[3+hourBuckets] = clamp01(f.PMDps / pmdScale)
		x[3+hourBuckets+1] = clamp01(f.CDpsNm / cdScale)
	}
	return x
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// intrinsicInput builds the second-layer side input (embeddings + length).
func (n *NN) intrinsicInput(f optical.Features) (vec []float64, fiberIdx, regionIdx, vendorIdx int) {
	fiberIdx, regionIdx, vendorIdx = -1, -1, -1
	var fe, re, ve []float64
	if n.mask.FiberID {
		fiberIdx = f.FiberID
		fe = n.fiberEmb.forward(fiberIdx)
	} else {
		fe = make([]float64, fiberEmbDim)
	}
	if n.mask.Region {
		regionIdx = n.vocab.regionIdx(f.Region)
		re = n.regionEmb.forward(regionIdx)
	} else {
		re = make([]float64, regionEmbDim)
	}
	if n.mask.Vendor {
		vendorIdx = n.vocab.vendorIdx(f.Vendor)
		ve = n.vendorEmb.forward(vendorIdx)
	} else {
		ve = make([]float64, vendorEmbDim)
	}
	length := n.scaler.scale(f)[3]
	vec = make([]float64, 0, fiberEmbDim+regionEmbDim+vendorEmbDim+1)
	vec = append(vec, fe...)
	vec = append(vec, re...)
	vec = append(vec, ve...)
	vec = append(vec, length)
	return vec, fiberIdx, regionIdx, vendorIdx
}

// forward runs the network, returning intermediate activations for backprop.
type nnActivations struct {
	crit, pre1, h1      []float64
	intr                []float64
	in2, pre2, h2       []float64
	deepPre, deepOut    [][]float64 // per extra hidden layer
	logits, probs       []float64
	fiberIdx, regionIdx int
	vendorIdx           int
}

func (n *NN) forward(f optical.Features) nnActivations {
	var a nnActivations
	a.crit = n.criticalInput(f)
	a.pre1 = n.l1.forward(a.crit)
	a.h1 = relu(a.pre1)
	a.intr, a.fiberIdx, a.regionIdx, a.vendorIdx = n.intrinsicInput(f)
	a.in2 = append(append([]float64(nil), a.h1...), a.intr...)
	a.pre2 = n.l2.forward(a.in2)
	a.h2 = relu(a.pre2)
	top := a.h2
	for _, l := range n.deep {
		pre := l.forward(top)
		out := relu(pre)
		a.deepPre = append(a.deepPre, pre)
		a.deepOut = append(a.deepOut, out)
		top = out
	}
	a.logits = n.decoder.forward(top)
	a.probs = softmax(a.logits)
	return a
}

// trainStep runs one SGD/Adam step on a single example with NLL loss.
func (n *NN) trainStep(ex trace.LabeledExample, lr float64) {
	a := n.forward(ex.Features)
	// dL/dlogits for softmax + NLL: p - onehot(y)
	target := 0
	if ex.Failed {
		target = 1
	}
	gradLogits := []float64{a.probs[0], a.probs[1]}
	gradLogits[target] -= 1

	decoderIn := a.h2
	if len(a.deepOut) > 0 {
		decoderIn = a.deepOut[len(a.deepOut)-1]
	}
	grad := n.decoder.backward(decoderIn, gradLogits)
	for i := len(n.deep) - 1; i >= 0; i-- {
		gradPre := reluBackward(a.deepPre[i], grad)
		layerIn := a.h2
		if i > 0 {
			layerIn = a.deepOut[i-1]
		}
		grad = n.deep[i].backward(layerIn, gradPre)
	}
	gradH2 := grad
	gradPre2 := reluBackward(a.pre2, gradH2)
	gradIn2 := n.l2.backward(a.in2, gradPre2)
	gradH1 := gradIn2[:HiddenUnits]
	gradIntr := gradIn2[HiddenUnits:]
	gradPre1 := reluBackward(a.pre1, gradH1)
	n.l1.backward(a.crit, gradPre1)

	if a.fiberIdx >= 0 {
		n.fiberEmb.backward(a.fiberIdx, gradIntr[:fiberEmbDim])
	}
	if a.regionIdx >= 0 {
		n.regionEmb.backward(a.regionIdx, gradIntr[fiberEmbDim:fiberEmbDim+regionEmbDim])
	}
	if a.vendorIdx >= 0 {
		n.vendorEmb.backward(a.vendorIdx, gradIntr[fiberEmbDim+regionEmbDim:fiberEmbDim+regionEmbDim+vendorEmbDim])
	}

	n.decoder.step(lr)
	for _, l := range n.deep {
		l.step(lr)
	}
	n.l2.step(lr)
	n.l1.step(lr)
	n.fiberEmb.step(lr)
	n.regionEmb.step(lr)
	n.vendorEmb.step(lr)
}

// PredictProb implements Predictor.
func (n *NN) PredictProb(f optical.Features) float64 {
	a := n.forward(f)
	return a.probs[1]
}

// Name implements Predictor.
func (n *NN) Name() string { return "NN" }

// Oversample duplicates minority-class examples until the classes balance
// ("we adopt the oversampling approach to address the imbalance", §4.1.1).
func Oversample(examples []trace.LabeledExample, rng *stats.RNG) []trace.LabeledExample {
	var pos, neg []trace.LabeledExample
	for _, ex := range examples {
		if ex.Failed {
			pos = append(pos, ex)
		} else {
			neg = append(neg, ex)
		}
	}
	if len(pos) == 0 || len(neg) == 0 {
		return append([]trace.LabeledExample(nil), examples...)
	}
	minority, majority := pos, neg
	if len(pos) > len(neg) {
		minority, majority = neg, pos
	}
	out := append([]trace.LabeledExample(nil), examples...)
	for deficit := len(majority) - len(minority); deficit > 0; deficit-- {
		out = append(out, minority[rng.Intn(len(minority))])
	}
	return out
}

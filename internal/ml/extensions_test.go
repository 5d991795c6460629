package ml

import (
	"math"
	"testing"

	"prete/internal/optical"
	"prete/internal/stats"
	"prete/internal/topology"
	"prete/internal/trace"
)

func trainedTinyNN(t *testing.T) (*NN, []trace.LabeledExample) {
	t.Helper()
	rng := stats.NewRNG(44)
	var data []trace.LabeledExample
	for i := 0; i < 400; i++ {
		degree := 3 + 7*rng.Float64()
		data = append(data, trace.LabeledExample{
			Features: optical.Features{
				DegreeDB: degree, GradientDB: rng.Float64(), Fluctuation: rng.Float64(),
				HourOfDay: rng.Intn(24), FiberID: rng.Intn(6),
				Region: []string{"A", "B"}[rng.Intn(2)], Vendor: "V", LengthKm: 100 + rng.Float64()*900,
			},
			Failed: degree > 6.5,
		})
	}
	cfg := DefaultNNConfig(44)
	cfg.Epochs = 8
	nn, err := TrainNN(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nn, data
}

// extendedDataset generates a trace with the §8 extended indicators on.
func extendedDataset(t *testing.T, seed uint64) (train, test []trace.LabeledExample) {
	t.Helper()
	net, err := topology.TWAN(seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.DefaultConfig(seed)
	cfg.Days = 200
	cfg.ExtendedIndicators = true
	tr, err := trace.Generate(cfg, net)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err = tr.Split(0.8)
	if err != nil {
		t.Fatal(err)
	}
	return train, test
}

// TestExtendedIndicatorsImprovePrediction verifies the §8 claim shape:
// collecting PMD/CD gives the model extra failure signal, so F1 with the
// extended mask beats F1 without it on an extended-indicator world.
func TestExtendedIndicatorsImprovePrediction(t *testing.T) {
	train, test := extendedDataset(t, 77)
	if len(train) < 400 {
		t.Skipf("small dataset: %d", len(train))
	}
	base := DefaultNNConfig(1)
	base.Epochs = 10
	withoutExt, err := TrainNN(train, base)
	if err != nil {
		t.Fatal(err)
	}
	ext := base
	ext.Mask = AllFeatures().WithExtended()
	withExt, err := TrainNN(train, ext)
	if err != nil {
		t.Fatal(err)
	}
	cBase := Evaluate(withoutExt, test)
	cExt := Evaluate(withExt, test)
	t.Logf("without extended: %v", cBase)
	t.Logf("with    extended: %v", cExt)
	if cExt.F1() < cBase.F1()-0.03 {
		t.Fatalf("extended indicators hurt F1: %v vs %v", cExt.F1(), cBase.F1())
	}
}

func TestExtendedMaskPlumbing(t *testing.T) {
	m := AllFeatures()
	if m.Extended {
		t.Fatal("extended should default off (paper baseline)")
	}
	m = m.WithExtended()
	if !m.Extended {
		t.Fatal("WithExtended did not enable")
	}
	m2, err := m.Without("extended")
	if err != nil || m2.Extended {
		t.Fatal("Without(extended) failed")
	}
}

// TestDeepNetworkTrains exercises the ExtraHidden knob: a 2-extra-layer
// network must still learn a separable rule and round-trip through
// serialization.
func TestDeepNetworkTrains(t *testing.T) {
	nnBase, data := trainedTinyNN(t)
	_ = nnBase
	cfg := DefaultNNConfig(44)
	cfg.Epochs = 8
	cfg.ExtraHidden = 2
	deep, err := TrainNN(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(deep.deep) != 2 {
		t.Fatalf("deep layers = %d, want 2", len(deep.deep))
	}
	c := Evaluate(deep, data)
	if c.Accuracy() < 0.85 {
		t.Fatalf("deep network accuracy %v on a separable problem", c.Accuracy())
	}
}

// TestDeepGradientCheck numerically validates backprop through the extra
// layers.
func TestDeepGradientCheck(t *testing.T) {
	_, data := trainedTinyNN(t)
	cfg := DefaultNNConfig(5)
	cfg.Epochs = 1
	cfg.ExtraHidden = 1
	nn, err := TrainNN(data[:50], cfg)
	if err != nil {
		t.Fatal(err)
	}
	ex := data[0]
	// numeric dL/dw for a few deep-layer weights vs one more training step
	loss := func() float64 {
		a := nn.forward(ex.Features)
		target := 0
		if ex.Failed {
			target = 1
		}
		return -math.Log(a.probs[target] + 1e-12)
	}
	layer := nn.deep[0]
	for _, wi := range []int{0, 7, 100} {
		// analytic gradient via a backward pass with zeroed accumulators
		for i := range layer.dw {
			layer.dw[i] = 0
		}
		a := nn.forward(ex.Features)
		target := 0
		if ex.Failed {
			target = 1
		}
		gradLogits := []float64{a.probs[0], a.probs[1]}
		gradLogits[target]--
		decoderIn := a.deepOut[0]
		grad := nn.decoder.backward(decoderIn, gradLogits)
		gradPre := reluBackward(a.deepPre[0], grad)
		layer.backward(a.h2, gradPre)
		// clear side-effects on the decoder accumulator
		for i := range nn.decoder.dw {
			nn.decoder.dw[i] = 0
		}
		for i := range nn.decoder.db {
			nn.decoder.db[i] = 0
		}
		analytic := layer.dw[wi]
		const h = 1e-6
		orig := layer.w[wi]
		layer.w[wi] = orig + h
		up := loss()
		layer.w[wi] = orig - h
		down := loss()
		layer.w[wi] = orig
		numeric := (up - down) / (2 * h)
		if math.Abs(numeric-analytic) > 1e-4 {
			t.Fatalf("w[%d]: analytic %v vs numeric %v", wi, analytic, numeric)
		}
	}
}

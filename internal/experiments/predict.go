package experiments

import (
	"fmt"
	"io"

	"prete/internal/ml"
	"prete/internal/sim"
	"prete/internal/stats"
	"prete/internal/trace"
)

func init() {
	register("tab5", "Prediction accuracy of TeaVar / Statistic / DT / NN", tab5)
	register("fig14", "Distribution of per-link prediction error", fig14)
	register("tab8", "NN feature ablation (Appendix A.6)", tab8)
}

// trainedModels fits the Table 5 model zoo on the shared trace.
type trainedModels struct {
	test  []trace.LabeledExample
	nn    *ml.NN
	dt    *ml.DecisionTree
	st    *ml.Statistic
	naive ml.NaiveTeaVar
}

func fitModels(opts Options) (*trainedModels, error) {
	tr, err := traceFor(opts)
	if err != nil {
		return nil, err
	}
	train, test, err := tr.Split(0.8)
	if err != nil {
		return nil, err
	}
	nnCfg := ml.DefaultNNConfig(opts.Seed)
	if opts.Quick {
		nnCfg.Epochs = 8
	}
	nn, err := ml.TrainNN(train, nnCfg)
	if err != nil {
		return nil, err
	}
	dt, err := ml.TrainDT(train)
	if err != nil {
		return nil, err
	}
	st, err := ml.TrainStatistic(train)
	if err != nil {
		return nil, err
	}
	return &trainedModels{
		test: test, nn: nn, dt: dt, st: st, naive: ml.NaiveTeaVar{PI: 0.003},
	}, nil
}

// tab5 prints precision/recall of the four models.
func tab5(w io.Writer, opts Options) error {
	m, err := fitModels(opts)
	if err != nil {
		return err
	}
	header(w, "model", "P", "R", "F1", "Acc")
	for _, p := range []ml.Predictor{m.naive, m.st, m.dt, m.nn} {
		c := ml.Evaluate(p, m.test)
		fmt.Fprintf(w, "%s\t%.2f\t%.2f\t%.2f\t%.2f\n", p.Name(), c.Precision(), c.Recall(), c.F1(), c.Accuracy())
	}
	fmt.Fprintln(w, "# paper: TeaVar ~0/~0, Statistic 0.45/0.37, DT 0.68/0.53, NN 0.81/0.81")
	return nil
}

// fig14 prints the per-link prediction error distributions for the naive
// baseline vs the NN.
func fig14(w io.Writer, opts Options) error {
	m, err := fitModels(opts)
	if err != nil {
		return err
	}
	header(w, "model", "quantile", "per_link_error")
	for _, p := range []ml.Predictor{m.naive, m.nn} {
		errs := ml.PerLinkError(p, m.test)
		ecdf := stats.NewECDF(errs)
		for _, q := range []float64{0.25, 0.5, 0.75, 0.95} {
			fmt.Fprintf(w, "%s\tp%02.0f\t%.3f\n", p.Name(), q*100, ecdf.Quantile(q))
		}
	}
	fmt.Fprintln(w, "# paper: PreTE's NN exhibits a smaller prediction error than TeaVar")
	return nil
}

// tab8 runs the leave-one-feature-out ablation.
func tab8(w io.Writer, opts Options) error {
	tr, err := traceFor(opts)
	if err != nil {
		return err
	}
	train, test, err := tr.Split(0.8)
	if err != nil {
		return err
	}
	features := []string{"time", "gradient", "degree", "fluctuation", "region", "fiberID", "vendor"}
	header(w, "method", "P", "R", "F1", "Acc")
	run := func(label string, mask ml.FeatureMask) error {
		cfg := ml.DefaultNNConfig(opts.Seed)
		cfg.Mask = mask
		if opts.Quick {
			cfg.Epochs = 6
		} else {
			cfg.Epochs = 12
		}
		nn, err := ml.TrainNN(train, cfg)
		if err != nil {
			return err
		}
		c := ml.Evaluate(nn, test)
		fmt.Fprintf(w, "%s\t%.2f\t%.2f\t%.2f\t%.2f\n", label, c.Precision(), c.Recall(), c.F1(), c.Accuracy())
		return nil
	}
	for _, f := range features {
		mask, err := ml.AllFeatures().Without(f)
		if err != nil {
			return err
		}
		if err := run("NN w/o "+f, mask); err != nil {
			return err
		}
	}
	if err := run("NN-all", ml.AllFeatures()); err != nil {
		return err
	}
	fmt.Fprintln(w, "# paper: NN-all best (0.81); NN w/o fiber ID worst (F1 0.68, Acc 0.61)")
	return nil
}

// MeasuredQuality derives a sim.PredictorQuality from a trained model's
// conditional predictions on the test set — the bridge from Table 5's
// models to Fig 15's availability curves.
func MeasuredQuality(p ml.Predictor, test []trace.LabeledExample) sim.PredictorQuality {
	var failSum, okSum float64
	var failN, okN int
	for _, ex := range test {
		pr := p.PredictProb(ex.Features)
		if ex.Failed {
			failSum += pr
			failN++
		} else {
			okSum += pr
			okN++
		}
	}
	q := sim.PredictorQuality{Name: p.Name(), PHatFail: 0.5, PHatOK: 0.5}
	if failN > 0 {
		q.PHatFail = failSum / float64(failN)
	}
	if okN > 0 {
		q.PHatOK = okSum / float64(okN)
	}
	return q
}

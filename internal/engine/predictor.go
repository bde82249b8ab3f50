package engine

import (
	"errors"
	"fmt"

	"repro/internal/flat"
	"repro/internal/forest"
	"repro/internal/frame"
	"repro/internal/gbdt"
)

// Predictor selects the prediction-model family the engine trains on
// the selected features. The paper uses Random Forest (as do the prior
// studies it follows); the gradient-boosted alternative is provided as
// an extension and exercised by the ablation benchmarks.
type Predictor int

// Prediction model families.
const (
	// PredictorForest trains the paper's Random Forest (default).
	PredictorForest Predictor = iota + 1
	// PredictorGBDT trains the XGBoost-style boosted trees instead.
	PredictorGBDT
)

// String names the predictor for reports.
func (p Predictor) String() string {
	switch p {
	case PredictorForest:
		return "random-forest"
	case PredictorGBDT:
		return "gbdt"
	default:
		return fmt.Sprintf("Predictor(%d)", int(p))
	}
}

// ErrUnknownPredictor indicates an unsupported Predictor value.
var ErrUnknownPredictor = errors.New("engine: unknown predictor")

// probModel scores batches of samples with positive-class
// probabilities, writing row i's probability into out[i]. Trained and
// loaded models are always the compiled flat forms (*flat.Forest,
// *flat.Model), which are bit-identical to the pointer walkers.
type probModel interface {
	PredictProbaBatch(cols [][]float64, out []float64) error
}

// marshalModel serializes a trained model's compiled payload for a
// ModelSnapshot, with the family unmarshalModel dispatches on.
func marshalModel(m probModel) (Predictor, []byte, error) {
	switch m := m.(type) {
	case *flat.Forest:
		data, err := m.MarshalBinary()
		return PredictorForest, data, err
	case *flat.Model:
		data, err := m.MarshalBinary()
		return PredictorGBDT, data, err
	default:
		return 0, nil, fmt.Errorf("%w: model %T", ErrUnknownPredictor, m)
	}
}

// unmarshalModel reconstructs a compiled model from its snapshot
// payload.
func unmarshalModel(family Predictor, data []byte, workers int) (probModel, error) {
	switch family {
	case PredictorForest:
		fl, err := flat.UnmarshalForest(data)
		if err != nil {
			return nil, err
		}
		fl.Workers = workers
		return fl, nil
	case PredictorGBDT:
		fl, err := flat.UnmarshalModel(data)
		if err != nil {
			return nil, err
		}
		fl.Workers = workers
		return fl, nil
	default:
		return nil, fmt.Errorf("%w: %v", ErrUnknownPredictor, family)
	}
}

// fitModel trains the configured prediction model on an expanded frame
// and compiles it for flat scoring.
func fitModel(fr *frame.Frame, cfg Config) (probModel, error) {
	cols := make([][]float64, fr.NumFeatures())
	for i := range cols {
		cols[i] = fr.Col(i)
	}
	switch cfg.predictor() {
	case PredictorForest:
		f, err := forest.Fit(cols, fr.Labels(), cfg.Forest)
		if err != nil {
			return nil, err
		}
		fl, err := flat.CompileForest(f)
		if err != nil {
			return nil, err
		}
		fl.Workers = cfg.Workers
		return fl, nil
	case PredictorGBDT:
		g := cfg.GBDT
		if g.NumRounds == 0 {
			d := gbdt.DefaultConfig()
			d.SplitMethod = g.SplitMethod
			d.MaxBins = g.MaxBins
			g = d
		}
		m, err := gbdt.Fit(cols, fr.Labels(), g)
		if err != nil {
			return nil, err
		}
		fl, err := flat.CompileModel(m)
		if err != nil {
			return nil, err
		}
		fl.Workers = cfg.Workers
		return fl, nil
	default:
		return nil, fmt.Errorf("%w: %v", ErrUnknownPredictor, cfg.Predictor)
	}
}

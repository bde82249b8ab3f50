// Package pipeline provides the concrete feature-selection strategies
// of the WEFR paper's offline failure-prediction workflow (Section
// V-A): the "no feature selection" baseline (NoSelection), the
// single-approach baselines of Exp#1/#2 (SingleRanker), and the full
// ensemble algorithm (WEFR). Each implements engine.Selector; the
// staged workflow itself — phases, training, calibration, scoring and
// snapshots — lives in internal/engine and is used directly.
package pipeline

import "repro/internal/engine"

// Config is engine.Config. It is the package's only alias and exists
// for the benchmark module under perfbench/, which names
// pipeline.Config alongside pipeline.WEFR and is versioned separately
// from the code it measures.
type Config = engine.Config

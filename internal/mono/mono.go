// Package mono implements the fine-tuned bottleneck prediction models Mf
// of the StreamTune paper: lightweight classifiers over
// [operator-embedding, parallelism] inputs that estimate the probability
// of an operator being a bottleneck, optionally enforcing the paper's
// monotonic constraint — the probability must be non-increasing in the
// parallelism degree.
//
// Three models are provided, matching the paper's ablation (§V-I):
//
//   - SVM: a maximum-margin classifier with a random-Fourier-feature RBF
//     kernel on the embedding and a linear term wp*p with the constraint
//     wp <= 0 (Eq. 5).
//   - XGB: gradient-boosted trees with a monotone-decreasing constraint
//     on the parallelism feature (splits violating the constraint are
//     discarded; leaf values are clamped to propagated bounds).
//   - NN: an unconstrained multilayer perceptron (no monotonicity), used
//     to demonstrate why the constraint matters.
package mono

import "fmt"

// Sample is one fine-tuning training instance: the parallelism-agnostic
// operator embedding, the deployed parallelism, and the observed
// bottleneck label.
type Sample struct {
	Embedding   []float64
	Parallelism int
	Label       int // 0 non-bottleneck, 1 bottleneck
}

// Model is a fine-tuned bottleneck predictor.
type Model interface {
	// Name identifies the model class ("svm", "xgb", "nn").
	Name() string
	// Fit trains the model from scratch on the samples.
	Fit(samples []Sample) error
	// Predict returns the estimated P(bottleneck) for an operator with
	// the given embedding at parallelism p.
	Predict(emb []float64, p int) float64
	// Monotonic reports whether the model enforces the monotonic
	// constraint.
	Monotonic() bool
}

// validate rejects degenerate training sets.
func validate(samples []Sample) error {
	if len(samples) == 0 {
		return fmt.Errorf("mono: no training samples")
	}
	d := len(samples[0].Embedding)
	if d == 0 {
		return fmt.Errorf("mono: zero-dimension embeddings")
	}
	var have0, have1 bool
	for i, s := range samples {
		if len(s.Embedding) != d {
			return fmt.Errorf("mono: sample %d embedding dim %d != %d", i, len(s.Embedding), d)
		}
		switch s.Label {
		case 0:
			have0 = true
		case 1:
			have1 = true
		default:
			return fmt.Errorf("mono: sample %d has label %d, want 0 or 1", i, s.Label)
		}
	}
	if !have0 || !have1 {
		return fmt.Errorf("mono: training set needs both classes (have0=%v have1=%v)", have0, have1)
	}
	return nil
}

// MinNonBottleneck returns the minimum parallelism in [1, pmax] whose
// predicted bottleneck probability is below threshold, exploiting the
// monotonic constraint with a binary search (Algorithm 2, line 8). If
// even pmax is predicted to bottleneck, pmax is returned.
//
// For non-monotonic models the binary search is still performed — this
// reproduces the paper's ablation, where the unconstrained NN's
// recommendations become unreliable.
//
// A fitted SVM computes the embedding's feature row once for the whole
// search; each probe is then one dot product, with the same result as
// Predict.
func MinNonBottleneck(m Model, emb []float64, pmax int, threshold float64) int {
	if pmax < 1 {
		return 1
	}
	if s, ok := m.(*SVM); ok && s.we != nil {
		var z [numFeatures]float64
		s.row(&z, emb)
		return minBelow(pmax, threshold, func(p int) float64 { return s.probability(&z, p) })
	}
	return minBelow(pmax, threshold, func(p int) float64 { return m.Predict(emb, p) })
}

// minBelow binary-searches [1, pmax] for the least p with predict(p) <
// threshold, returning pmax when even predict(pmax) is not below it.
func minBelow(pmax int, threshold float64, predict func(p int) float64) int {
	if predict(pmax) >= threshold {
		return pmax
	}
	lo, hi := 1, pmax // invariant: predict(hi) < threshold
	for lo < hi {
		mid := (lo + hi) / 2
		if predict(mid) < threshold {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// New constructs a model by name with the given maximum parallelism for
// feature normalization and a deterministic seed.
func New(name string, pmax int, seed int64) (Model, error) {
	switch name {
	case "svm":
		return NewSVM(pmax, seed), nil
	case "xgb":
		return NewXGB(pmax, seed), nil
	case "nn":
		return NewNN(pmax, seed), nil
	}
	return nil, fmt.Errorf("mono: unknown model %q (want svm, xgb or nn)", name)
}

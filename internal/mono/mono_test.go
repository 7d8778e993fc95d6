package mono

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// synthSamples fabricates a learnable dataset: each "operator" has an
// embedding whose first component encodes its per-instance cost; the
// operator bottlenecks when parallelism < need = ceil(cost * 20).
func synthSamples(rng *rand.Rand, n, pmax int) []Sample {
	var out []Sample
	for i := 0; i < n; i++ {
		cost := rng.Float64() // in [0,1)
		need := 1 + int(cost*20)
		p := 1 + rng.Intn(pmax)
		label := 0
		if p < need {
			label = 1
		}
		emb := []float64{cost, 1 - cost, 0.5 * cost, rng.Float64() * 0.01}
		out = append(out, Sample{Embedding: emb, Parallelism: p, Label: label})
	}
	return out
}

func trainAccuracy(m Model, samples []Sample) float64 {
	correct := 0
	for _, s := range samples {
		pred := 0
		if m.Predict(s.Embedding, s.Parallelism) >= 0.5 {
			pred = 1
		}
		if pred == s.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(samples))
}

func TestNewByName(t *testing.T) {
	for _, name := range []string{"svm", "xgb", "nn"} {
		m, err := New(name, 100, 1)
		if err != nil {
			t.Fatal(err)
		}
		if m.Name() != name {
			t.Fatalf("Name() = %q, want %q", m.Name(), name)
		}
	}
	if _, err := New("forest", 100, 1); err == nil {
		t.Fatal("expected unknown-model error")
	}
}

func TestMonotonicFlags(t *testing.T) {
	if !NewSVM(100, 1).Monotonic() || !NewXGB(100, 1).Monotonic() {
		t.Fatal("SVM/XGB must report monotonic")
	}
	if NewNN(100, 1).Monotonic() {
		t.Fatal("NN must not report monotonic")
	}
}

func TestValidateRejectsBadData(t *testing.T) {
	m := NewSVM(100, 1)
	if err := m.Fit(nil); err == nil {
		t.Fatal("expected empty-set error")
	}
	oneClass := []Sample{{Embedding: []float64{1}, Parallelism: 1, Label: 0}}
	if err := m.Fit(oneClass); err == nil {
		t.Fatal("expected one-class error")
	}
	ragged := []Sample{
		{Embedding: []float64{1, 2}, Parallelism: 1, Label: 0},
		{Embedding: []float64{1}, Parallelism: 2, Label: 1},
	}
	if err := m.Fit(ragged); err == nil {
		t.Fatal("expected ragged-embedding error")
	}
	badLabel := []Sample{
		{Embedding: []float64{1}, Parallelism: 1, Label: 0},
		{Embedding: []float64{1}, Parallelism: 1, Label: 7},
	}
	if err := m.Fit(badLabel); err == nil {
		t.Fatal("expected bad-label error")
	}
	zeroDim := []Sample{
		{Embedding: []float64{}, Parallelism: 1, Label: 0},
		{Embedding: nil, Parallelism: 2, Label: 1},
	}
	for _, zm := range []Model{m, NewXGB(100, 1), NewNN(100, 1)} {
		if err := zm.Fit(zeroDim); err == nil {
			t.Fatalf("%s: expected zero-dimension error", zm.Name())
		}
	}
}

func TestUntrainedPredicts50(t *testing.T) {
	emb := []float64{0.3}
	for _, m := range []Model{NewSVM(10, 1), NewXGB(10, 1), NewNN(10, 1)} {
		if got := m.Predict(emb, 5); got != 0.5 {
			t.Errorf("%s untrained Predict = %v, want 0.5", m.Name(), got)
		}
	}
}

func TestModelsLearnSynthetic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	samples := synthSamples(rng, 400, 30)
	for _, m := range []Model{NewSVM(30, 2), NewXGB(30, 2), NewNN(30, 2)} {
		if err := m.Fit(samples); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if acc := trainAccuracy(m, samples); acc < 0.85 {
			t.Errorf("%s train accuracy = %.3f, want >= 0.85", m.Name(), acc)
		}
	}
}

// TestMonotoneProperty: for the constrained models, P(bottleneck) must be
// non-increasing in parallelism for arbitrary embeddings.
func TestMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	samples := synthSamples(rng, 300, 30)
	for _, m := range []Model{NewSVM(30, 3), NewXGB(30, 3)} {
		if err := m.Fit(samples); err != nil {
			t.Fatal(err)
		}
		check := func(c0, c1, c2, c3 float64) bool {
			emb := []float64{clamp01(c0), clamp01(c1), clamp01(c2), clamp01(c3)}
			prev := m.Predict(emb, 1)
			for p := 2; p <= 30; p++ {
				cur := m.Predict(emb, p)
				if cur > prev+1e-9 {
					return false
				}
				prev = cur
			}
			return true
		}
		cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(17))}
		if err := quick.Check(check, cfg); err != nil {
			t.Errorf("%s violates monotonicity: %v", m.Name(), err)
		}
	}
}

func clamp01(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0.5
	}
	return math.Abs(math.Mod(x, 1))
}

func TestMinNonBottleneckFindsThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	samples := synthSamples(rng, 600, 30)
	m := NewXGB(30, 4)
	if err := m.Fit(samples); err != nil {
		t.Fatal(err)
	}
	// For a high-cost operator, the recommended parallelism must be
	// close to the ground-truth need and must be predicted
	// non-bottleneck.
	cost := 0.8
	emb := []float64{cost, 1 - cost, 0.5 * cost, 0}
	need := 1 + int(cost*20) // 17
	got := MinNonBottleneck(m, emb, 30, 0.5)
	if m.Predict(emb, got) >= 0.5 {
		t.Fatalf("recommended p=%d still predicted bottleneck", got)
	}
	if got < need-6 || got > need+6 {
		t.Errorf("recommended p=%d far from ground-truth need %d", got, need)
	}
	// A trivial operator should get parallelism 1.
	cheap := []float64{0.0, 1, 0, 0}
	if got := MinNonBottleneck(m, cheap, 30, 0.5); got > 5 {
		t.Errorf("cheap operator recommended p=%d, want small", got)
	}
}

func TestMinNonBottleneckEdgeCases(t *testing.T) {
	m := always(0.9)
	if got := MinNonBottleneck(m, nil, 50, 0.5); got != 50 {
		t.Fatalf("always-bottleneck should return pmax, got %d", got)
	}
	m2 := always(0.1)
	if got := MinNonBottleneck(m2, nil, 50, 0.5); got != 1 {
		t.Fatalf("never-bottleneck should return 1, got %d", got)
	}
	if got := MinNonBottleneck(m2, nil, 0, 0.5); got != 1 {
		t.Fatalf("pmax<1 should return 1, got %d", got)
	}
}

// always is a constant-probability model for edge-case tests.
type always float64

func (a always) Name() string                   { return "const" }
func (a always) Fit([]Sample) error             { return nil }
func (a always) Predict([]float64, int) float64 { return float64(a) }
func (a always) Monotonic() bool                { return true }

// TestMinNonBottleneckMatchesLinearScan: binary search under the
// monotonic constraint must agree with an exhaustive scan.
func TestMinNonBottleneckMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	samples := synthSamples(rng, 300, 30)
	m := NewSVM(30, 5)
	if err := m.Fit(samples); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 25; trial++ {
		cost := rng.Float64()
		emb := []float64{cost, 1 - cost, 0.5 * cost, 0}
		bin := MinNonBottleneck(m, emb, 30, 0.5)
		lin := 30
		for p := 1; p <= 30; p++ {
			if m.Predict(emb, p) < 0.5 {
				lin = p
				break
			}
		}
		if bin != lin {
			t.Fatalf("binary %d != linear %d for cost %.2f", bin, lin, cost)
		}
	}
}

func TestXGBDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	samples := synthSamples(rng, 200, 20)
	a := NewXGB(20, 7)
	b := NewXGB(20, 7)
	if err := a.Fit(samples); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(samples); err != nil {
		t.Fatal(err)
	}
	emb := []float64{0.4, 0.6, 0.2, 0}
	for p := 1; p <= 20; p++ {
		if a.Predict(emb, p) != b.Predict(emb, p) {
			t.Fatal("same seed, different predictions")
		}
	}
}

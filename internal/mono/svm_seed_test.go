package mono

// Differential test pinning the SVM (one feature row per distinct
// embedding, one fused SGD pass, pooled buffers, shared random draws) to
// a verbatim copy of its seed implementation (per-sample feature rows,
// three passes per SGD step, fresh buffers on every call), bit for bit,
// per the nnmodel_seed_test.go precedent.

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refSVM is the seed SVM's code, verbatim except for the receiver type.
type refSVM struct {
	pmax int
	seed int64

	// Random Fourier feature parameters (fixed at construction).
	numFeatures int
	gamma       float64
	omega       [][]float64 // numFeatures x embeddingDim, lazily sized
	phase       []float64

	// Standardization statistics of the embedding dimensions, estimated
	// at Fit time. RBF kernels need comparable feature scales.
	mean []float64
	std  []float64

	// Learned parameters.
	we []float64 // weights over RFF features
	wp float64   // parallelism weight, constrained <= 0
	b  float64

	// Hyperparameters.
	Lambda float64 // L2 regularization
	Epochs int
	// PlattScale sharpens the sigmoid mapping margin -> probability.
	PlattScale float64
}

func newRefSVM(pmax int, seed int64) *refSVM {
	return &refSVM{
		pmax:        pmax,
		seed:        seed,
		numFeatures: 128,
		gamma:       0.5,
		Lambda:      1e-4,
		Epochs:      60,
		PlattScale:  2.0,
	}
}

func (s *refSVM) Name() string { return "svm" }

func (s *refSVM) Monotonic() bool { return true }

func (s *refSVM) initFeatures(d int) {
	rng := rand.New(rand.NewSource(s.seed))
	s.omega = make([][]float64, s.numFeatures)
	s.phase = make([]float64, s.numFeatures)
	scale := math.Sqrt(2 * s.gamma)
	for i := range s.omega {
		s.omega[i] = make([]float64, d)
		for j := range s.omega[i] {
			s.omega[i][j] = rng.NormFloat64() * scale
		}
		s.phase[i] = 2 * math.Pi * rng.Float64()
	}
}

func (s *refSVM) standardize(emb []float64) []float64 {
	if s.mean == nil {
		return emb
	}
	out := make([]float64, len(emb))
	for j, x := range emb {
		if j < len(s.mean) {
			out[j] = (x - s.mean[j]) / s.std[j]
		}
	}
	return out
}

func (s *refSVM) fitStats(samples []Sample) {
	d := len(samples[0].Embedding)
	s.mean = make([]float64, d)
	s.std = make([]float64, d)
	for _, sm := range samples {
		for j, x := range sm.Embedding {
			s.mean[j] += x
		}
	}
	n := float64(len(samples))
	for j := range s.mean {
		s.mean[j] /= n
	}
	for _, sm := range samples {
		for j, x := range sm.Embedding {
			dx := x - s.mean[j]
			s.std[j] += dx * dx
		}
	}
	for j := range s.std {
		s.std[j] = math.Sqrt(s.std[j] / n)
		if s.std[j] < 1e-6 {
			s.std[j] = 1
		}
	}
}

func (s *refSVM) medianGamma(samples []Sample, rng *rand.Rand) {
	limit := 60
	if len(samples) < limit {
		limit = len(samples)
	}
	idx := rng.Perm(len(samples))[:limit]
	var d2s []float64
	for a := 0; a < limit; a++ {
		for b := a + 1; b < limit; b++ {
			ea := s.standardize(samples[idx[a]].Embedding)
			eb := s.standardize(samples[idx[b]].Embedding)
			d2 := 0.0
			for j := range ea {
				dx := ea[j] - eb[j]
				d2 += dx * dx
			}
			d2s = append(d2s, d2)
		}
	}
	if len(d2s) == 0 {
		return
	}
	sort.Float64s(d2s)
	med := d2s[len(d2s)/2]
	if med > 1e-9 {
		s.gamma = 1 / med
	}
}

func (s *refSVM) rff(emb []float64) []float64 {
	emb = s.standardize(emb)
	z := make([]float64, s.numFeatures)
	norm := math.Sqrt(2 / float64(s.numFeatures))
	for i := range z {
		dot := s.phase[i]
		w := s.omega[i]
		for j, x := range emb {
			if j < len(w) {
				dot += w[j] * x
			}
		}
		z[i] = norm * math.Cos(dot)
	}
	return z
}

func (s *refSVM) normP(p int) float64 {
	if s.pmax <= 0 {
		return 0
	}
	return float64(p) / float64(s.pmax)
}

func (s *refSVM) margin(emb []float64, p int) float64 {
	z := s.rff(emb)
	f := s.b + s.wp*s.normP(p)
	for i, zi := range z {
		f += s.we[i] * zi
	}
	return f
}

func (s *refSVM) Fit(samples []Sample) error {
	if err := validate(samples); err != nil {
		return err
	}
	d := len(samples[0].Embedding)
	s.fitStats(samples)
	rngGamma := rand.New(rand.NewSource(s.seed + 2))
	s.medianGamma(samples, rngGamma)
	s.initFeatures(d)
	s.we = make([]float64, s.numFeatures)
	s.wp, s.b = 0, 0

	// Precompute feature vectors.
	zs := make([][]float64, len(samples))
	ps := make([]float64, len(samples))
	ys := make([]float64, len(samples))
	for i, sm := range samples {
		zs[i] = s.rff(sm.Embedding)
		ps[i] = s.normP(sm.Parallelism)
		ys[i] = -1
		if sm.Label == 1 {
			ys[i] = 1
		}
	}

	n0, n1 := 0.0, 0.0
	for _, y := range ys {
		if y > 0 {
			n1++
		} else {
			n0++
		}
	}
	posWeight := 1.0
	if n1 > 0 {
		posWeight = math.Min(math.Max(n0/n1, 1), 20)
	}

	rng := rand.New(rand.NewSource(s.seed + 1))
	order := rng.Perm(len(samples))
	t := 0
	avgWe := make([]float64, s.numFeatures)
	var avgWp, avgB float64
	avgCount := 0
	avgFrom := s.Epochs / 2
	for ep := 0; ep < s.Epochs; ep++ {
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		for _, i := range order {
			t++
			lr := 1 / (s.Lambda * float64(t+100))
			f := s.b + s.wp*ps[i]
			for k, zk := range zs[i] {
				f += s.we[k] * zk
			}
			// L2 shrinkage.
			for k := range s.we {
				s.we[k] *= 1 - lr*s.Lambda
			}
			s.wp *= 1 - lr*s.Lambda
			if ys[i]*f < 1 {
				w := 1.0
				if ys[i] > 0 {
					w = posWeight
				}
				for k, zk := range zs[i] {
					s.we[k] += lr * w * ys[i] * zk
				}
				s.wp += lr * w * ys[i] * ps[i]
				s.b += lr * w * ys[i] * 0.1
			}
			// Monotonic projection (Eq. 5: wp <= 0).
			if s.wp > 0 {
				s.wp = 0
			}
		}
		if ep >= avgFrom {
			for k := range avgWe {
				avgWe[k] += s.we[k]
			}
			avgWp += s.wp
			avgB += s.b
			avgCount++
		}
	}
	if avgCount > 0 {
		for k := range avgWe {
			s.we[k] = avgWe[k] / float64(avgCount)
		}
		s.wp = avgWp / float64(avgCount)
		s.b = avgB / float64(avgCount)
		if s.wp > 0 {
			s.wp = 0
		}
	}
	return nil
}

func (s *refSVM) Predict(emb []float64, p int) float64 {
	if s.we == nil {
		return 0.5
	}
	return 1 / (1 + math.Exp(-s.PlattScale*s.margin(emb, p)))
}

// refMinNonBottleneck is the seed MinNonBottleneck: a binary search over
// Predict alone.
func refMinNonBottleneck(m Model, emb []float64, pmax int, threshold float64) int {
	if pmax < 1 {
		return 1
	}
	if m.Predict(emb, pmax) >= threshold {
		return pmax
	}
	lo, hi := 1, pmax
	for lo < hi {
		mid := (lo + hi) / 2
		if m.Predict(emb, mid) < threshold {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// sharedSet builds a training set whose embedding slices are shared the
// way the tuner shares them: the distill grid appends one embedding at
// ten parallelisms, absorb appends a bottleneck at p, p-1 and p/2, and
// feedback appends repeated copies. Every fourth operator also gets an
// equal-valued but distinct slice, which must behave like any other
// embedding. ops embeddings of dimension d are drawn from rng.
func sharedSet(rng *rand.Rand, ops, d, pmax int) []Sample {
	var out []Sample
	grid := []int{1, 2, 3, 5, 8, 13, 21, 34, 55, 89}
	for o := 0; o < ops; o++ {
		emb := make([]float64, d)
		for j := range emb {
			emb[j] = rng.NormFloat64()
		}
		need := 1 + int(math.Abs(emb[0])*float64(pmax)/3)
		label := func(p int) int {
			if p < need {
				return 1
			}
			return 0
		}
		switch o % 4 {
		case 0: // distill grid
			for _, p := range grid {
				if p <= pmax {
					out = append(out, Sample{Embedding: emb, Parallelism: p, Label: label(p)})
				}
			}
		case 1: // absorb: a bottleneck and its implied lower degrees
			p := 2 + rng.Intn(pmax-1)
			out = append(out,
				Sample{Embedding: emb, Parallelism: p, Label: label(p)},
				Sample{Embedding: emb, Parallelism: p - 1, Label: 1},
				Sample{Embedding: emb, Parallelism: p / 2, Label: 1})
		case 2: // feedback copies
			p := 1 + rng.Intn(pmax)
			for c := 0; c < 3; c++ {
				out = append(out, Sample{Embedding: emb, Parallelism: p, Label: label(p)})
			}
		case 3: // equal values, distinct backing arrays
			for c := 0; c < 2; c++ {
				dup := append([]float64(nil), emb...)
				p := 1 + rng.Intn(pmax)
				out = append(out, Sample{Embedding: dup, Parallelism: p, Label: label(p)})
			}
		}
	}
	// Shuffle so shared slices are not adjacent, then force both classes.
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	out[0].Label = 0
	out[1].Label = 1
	return out
}

func sameBits(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s = %v, seed %v (bit difference)", what, got, want)
	}
}

func sameSliceBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("len(%s) = %d, seed %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, seed %v (bit difference)", what, i, got[i], want[i])
		}
	}
}

// assertSameSVM checks every fitted parameter and the model's answers on
// a grid of probes against the seed's, bit for bit.
func assertSameSVM(t *testing.T, got *SVM, want *refSVM, probes [][]float64) {
	t.Helper()
	sameSliceBits(t, "we", got.we, want.we)
	sameBits(t, "wp", got.wp, want.wp)
	sameBits(t, "b", got.b, want.b)
	sameBits(t, "gamma", got.gamma, want.gamma)
	sameSliceBits(t, "mean", got.mean, want.mean)
	sameSliceBits(t, "std", got.std, want.std)
	for _, emb := range probes {
		for _, p := range []int{1, 2, 7, 13, 23, want.pmax} {
			sameBits(t, "Predict", got.Predict(emb, p), want.Predict(emb, p))
		}
		for _, th := range []float64{0.1, 0.4, 0.5, 0.9} {
			g := MinNonBottleneck(got, emb, want.pmax, th)
			w := refMinNonBottleneck(want, emb, want.pmax, th)
			if g != w {
				t.Fatalf("MinNonBottleneck(threshold %v) = %d, seed %d", th, g, w)
			}
		}
	}
}

// probesFor returns embeddings to query: training embeddings, fresh
// draws, and embeddings one longer and one shorter than d (Predict
// standardizes the common prefix, as the seed does).
func probesFor(rng *rand.Rand, samples []Sample, d int) [][]float64 {
	probes := [][]float64{samples[0].Embedding, samples[len(samples)/2].Embedding}
	for i := 0; i < 4; i++ {
		emb := make([]float64, d)
		for j := range emb {
			emb[j] = rng.NormFloat64()
		}
		probes = append(probes, emb)
	}
	longer := append(append([]float64(nil), probes[2]...), 0.7)
	probes = append(probes, longer, probes[3][:d-1])
	return probes
}

func TestSVMMatchesSeedImplementation(t *testing.T) {
	for _, d := range []int{1, 3, 5, 32} {
		for _, ops := range []int{12, 90} { // n < 60 and n well above it
			rng := rand.New(rand.NewSource(int64(31*d + ops)))
			samples := sharedSet(rng, ops, d, 40)
			got, want := NewSVM(40, 7), newRefSVM(40, 7)
			got.Epochs, want.Epochs = 12, 12
			if err := got.Fit(samples); err != nil {
				t.Fatal(err)
			}
			if err := want.Fit(samples); err != nil {
				t.Fatal(err)
			}
			assertSameSVM(t, got, want, probesFor(rng, samples, d))
		}
	}
}

// TestSVMRefitMatchesSeed refits one model on a growing set, as the
// tuner does every round; gamma carries over between fits when the
// median heuristic has nothing to say, so refits must match too.
func TestSVMRefitMatchesSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	full := sharedSet(rng, 60, 8, 30)
	got, want := NewSVM(30, 3), newRefSVM(30, 3)
	got.Epochs, want.Epochs = 8, 8
	probes := probesFor(rng, full, 8)
	for n := 20; n <= len(full); n += 37 {
		if err := got.Fit(full[:n]); err != nil {
			t.Fatal(err)
		}
		if err := want.Fit(full[:n]); err != nil {
			t.Fatal(err)
		}
		assertSameSVM(t, got, want, probes)
	}
	// Identical embeddings make every pair distance zero, so the refit
	// keeps the previous gamma.
	flat := []Sample{
		{Embedding: []float64{1, 2, 3, 4, 5, 6, 7, 8}, Parallelism: 3, Label: 1},
		{Embedding: []float64{1, 2, 3, 4, 5, 6, 7, 8}, Parallelism: 9, Label: 0},
	}
	if err := got.Fit(flat); err != nil {
		t.Fatal(err)
	}
	if err := want.Fit(flat); err != nil {
		t.Fatal(err)
	}
	assertSameSVM(t, got, want, probes)
}

// TestSVMAlternatingModelsMatchSeed fits two models with different seeds
// and dimensions in turn, so neither pooled buffers nor the shared
// draws can carry state from one to the other.
func TestSVMAlternatingModelsMatchSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	setA := sharedSet(rng, 40, 5, 30)
	setB := sharedSet(rng, 70, 32, 50)
	gotA, wantA := NewSVM(30, 11), newRefSVM(30, 11)
	gotB, wantB := NewSVM(50, 12), newRefSVM(50, 12)
	for _, m := range []*SVM{gotA, gotB} {
		m.Epochs = 6
	}
	wantA.Epochs, wantB.Epochs = 6, 6
	probesA, probesB := probesFor(rng, setA, 5), probesFor(rng, setB, 32)
	for round := 0; round < 3; round++ {
		nA, nB := len(setA)-10*round, len(setB)-15*round
		if err := gotA.Fit(setA[:nA]); err != nil {
			t.Fatal(err)
		}
		if err := gotB.Fit(setB[:nB]); err != nil {
			t.Fatal(err)
		}
		if err := wantA.Fit(setA[:nA]); err != nil {
			t.Fatal(err)
		}
		if err := wantB.Fit(setB[:nB]); err != nil {
			t.Fatal(err)
		}
		assertSameSVM(t, gotA, wantA, probesA)
		assertSameSVM(t, gotB, wantB, probesB)
	}
}

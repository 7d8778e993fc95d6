package mono

import (
	"math"
	"math/rand"
	"sort"
	"sync"
)

// numFeatures is the number of random Fourier features.
const numFeatures = 128

// SVM is a soft-margin support vector machine over
// [RFF(embedding), parallelism] with the monotonic constraint wp <= 0 of
// Eq. 5 in the paper. The RBF kernel on the embedding is approximated
// with random Fourier features so the primal problem can be solved with
// projected subgradient descent (Pegasos-style); the parallelism term
// stays linear so the constraint is a simple projection.
//
// A tuner's training set repeats a few hundred embedding slices many
// times (the distill grid, the absorb augmentation and the feedback
// copies all append the same slice), so Fit computes one feature row per
// distinct slice into a flat row-major matrix and gives each sample the
// index of its row. The matrix and Fit's other working buffers come from
// a package pool, so a fitted model holds only its parameters, and the
// random draws behind the feature map, a function of the seed and the
// embedding dimension alone, are shared read-only between models. Fit
// and Predict perform the floating-point operations of the plain
// per-sample algorithm in the same order, so the weights and every
// prediction are bit for bit the same (svm_seed_test.go pins this).
type SVM struct {
	pmax int
	seed int64

	// Random Fourier feature map: omega[i][j] = draws.normal[i*d+j] *
	// scale with scale = sqrt(2*gamma), and phase draws.phase[i].
	gamma float64
	draws *rffDraws
	scale float64

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

// NewSVM creates an untrained monotonic SVM.
func NewSVM(pmax int, seed int64) *SVM {
	return &SVM{
		pmax:       pmax,
		seed:       seed,
		gamma:      0.5,
		Lambda:     1e-4,
		Epochs:     60,
		PlattScale: 2.0,
	}
}

// Name implements Model.
func (s *SVM) Name() string { return "svm" }

// Monotonic implements Model.
func (s *SVM) Monotonic() bool { return true }

// rffDraws are the seed-determined random draws behind the feature map
// for embedding dimension d: numFeatures x d standard normals, row-major,
// and one phase per feature. gamma only scales the normals, so models
// with the same seed and dimension share one read-only copy.
type rffDraws struct {
	d      int
	normal []float64
	phase  [numFeatures]float64
}

type drawsKey struct {
	seed int64
	d    int
}

// drawsCache maps a drawsKey to its *rffDraws. Models are built from a
// handful of configured seeds, so it stays small.
var drawsCache sync.Map

// drawsFor returns the shared draws for (seed, d), drawing them in the
// order the per-model initialization always used: for each feature, d
// normals, then its phase.
func drawsFor(seed int64, d int) *rffDraws {
	key := drawsKey{seed, d}
	if v, ok := drawsCache.Load(key); ok {
		return v.(*rffDraws)
	}
	rng := rand.New(rand.NewSource(seed))
	dr := &rffDraws{d: d, normal: make([]float64, numFeatures*d)}
	for i := 0; i < numFeatures; i++ {
		for j := 0; j < d; j++ {
			dr.normal[i*d+j] = rng.NormFloat64()
		}
		dr.phase[i] = 2 * math.Pi * rng.Float64()
	}
	v, _ := drawsCache.LoadOrStore(key, dr)
	return v.(*rffDraws)
}

// features writes the random Fourier features of the standardized
// embedding x (at most d long) into z:
// z[i] = norm * cos(phase[i] + Σ_j (normal[i][j]*scale) * x[j]).
// normal*scale rounds to the omega a per-model draw would have stored.
// Four features are summed side by side as independent chains; each one
// adds its terms in j order, so the bits do not depend on the
// interleaving.
func (dr *rffDraws) features(z *[numFeatures]float64, x []float64, scale float64) {
	d, m := dr.d, len(x)
	norm := math.Sqrt(2 / float64(numFeatures))
	for i := 0; i < numFeatures; i += 4 {
		w0 := dr.normal[i*d : i*d+m]
		w1 := dr.normal[(i+1)*d : (i+1)*d+m]
		w2 := dr.normal[(i+2)*d : (i+2)*d+m]
		w3 := dr.normal[(i+3)*d : (i+3)*d+m]
		s0, s1, s2, s3 := dr.phase[i], dr.phase[i+1], dr.phase[i+2], dr.phase[i+3]
		for j, xj := range x {
			s0 += (w0[j] * scale) * xj
			s1 += (w1[j] * scale) * xj
			s2 += (w2[j] * scale) * xj
			s3 += (w3[j] * scale) * xj
		}
		z[i] = norm * math.Cos(s0)
		z[i+1] = norm * math.Cos(s1)
		z[i+2] = norm * math.Cos(s2)
		z[i+3] = norm * math.Cos(s3)
	}
}

// standardize z-scores emb[:len(dst)] with the Fit-time statistics into
// dst.
func (s *SVM) standardize(dst, emb []float64) {
	for j := range dst {
		dst[j] = (emb[j] - s.mean[j]) / s.std[j]
	}
}

// fitStats estimates per-dimension mean/std over the training set.
func (s *SVM) fitStats(samples []Sample) {
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

// fitBuffers are Fit's working buffers, recycled through fitPool. With
// k distinct embeddings among n samples:
type fitBuffers struct {
	rowOf map[*float64]int32 // first element of an embedding slice -> its row; empty between fits
	src   []int32            // k: a sample holding each row's embedding
	row   []int32            // n: each sample's row
	x     []float64          // k x d standardized embeddings
	feat  []float64          // k x numFeatures feature rows
	p, y  []float64          // n: normalized parallelism and ±1 label
	d2    []float64          // medianGamma's pair distances
	avg   [numFeatures]float64
}

var fitPool = sync.Pool{New: func() any {
	return &fitBuffers{rowOf: make(map[*float64]int32)}
}}

// resize returns buf with length n, reallocating only when its capacity
// is short; the contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// featureRow returns row r of the feature matrix.
func (fb *fitBuffers) featureRow(r int32) *[numFeatures]float64 {
	return (*[numFeatures]float64)(fb.feat[int(r)*numFeatures:])
}

// rows maps every sample to the row of its embedding slice, keyed by the
// slice's first element (validate guarantees equal, non-zero lengths),
// and standardizes each distinct embedding once.
func (fb *fitBuffers) rows(s *SVM, samples []Sample) {
	fb.row = resize(fb.row, len(samples))
	fb.src = fb.src[:0]
	for i, sm := range samples {
		key := &sm.Embedding[0]
		r, ok := fb.rowOf[key]
		if !ok {
			r = int32(len(fb.src))
			fb.rowOf[key] = r
			fb.src = append(fb.src, int32(i))
		}
		fb.row[i] = r
	}
	d := len(s.mean)
	fb.x = resize(fb.x, len(fb.src)*d)
	for r, i := range fb.src {
		s.standardize(fb.x[r*d:(r+1)*d], samples[i].Embedding)
	}
}

// release empties the row map, so the pool pins no caller's embeddings,
// and returns the buffers to the pool.
func (fb *fitBuffers) release() {
	clear(fb.rowOf)
	fitPool.Put(fb)
}

// medianGamma sets the RBF width by the median pairwise squared distance
// heuristic over a subsample of standardized embeddings.
func (s *SVM) medianGamma(fb *fitBuffers, rng *rand.Rand) {
	n, d := len(fb.row), len(s.mean)
	limit := min(60, n)
	idx := rng.Perm(n)[:limit]
	d2s := fb.d2[:0]
	for a := 0; a < limit; a++ {
		ra := int(fb.row[idx[a]])
		ea := fb.x[ra*d : (ra+1)*d]
		for b := a + 1; b < limit; b++ {
			rb := int(fb.row[idx[b]])
			eb := fb.x[rb*d : (rb+1)*d]
			d2 := 0.0
			for j := range ea {
				dx := ea[j] - eb[j]
				d2 += dx * dx
			}
			d2s = append(d2s, d2)
		}
	}
	fb.d2 = d2s
	if len(d2s) == 0 {
		return
	}
	sort.Float64s(d2s)
	med := d2s[len(d2s)/2]
	if med > 1e-9 {
		s.gamma = 1 / med
	}
}

// row writes the feature row of a raw embedding into z. Like the
// standardization it follows, it reads only the first d entries of a
// longer embedding and treats a shorter one as its prefix.
func (s *SVM) row(z *[numFeatures]float64, emb []float64) {
	var stack [64]float64
	x := stack[:]
	if m := min(len(emb), len(s.mean)); m <= len(x) {
		x = x[:m]
	} else {
		x = make([]float64, m)
	}
	s.standardize(x, emb)
	s.draws.features(z, x, s.scale)
}

func (s *SVM) normP(p int) float64 {
	if s.pmax <= 0 {
		return 0
	}
	return float64(p) / float64(s.pmax)
}

// probability maps the decision value f = b + wp*p + we . z through the
// scaled sigmoid.
func (s *SVM) probability(z *[numFeatures]float64, p int) float64 {
	f := s.b + s.wp*s.normP(p)
	for i, zi := range z {
		f += s.we[i] * zi
	}
	return 1 / (1 + math.Exp(-s.PlattScale*f))
}

// Fit implements Model with projected subgradient descent on the primal
// hinge-loss objective. Labels are mapped to y in {-1, +1} with +1 =
// bottleneck; the projection wp = min(wp, 0) enforces the monotonic
// constraint after every update.
func (s *SVM) Fit(samples []Sample) error {
	if err := validate(samples); err != nil {
		return err
	}
	n, d := len(samples), len(samples[0].Embedding)
	s.fitStats(samples)
	fb := fitPool.Get().(*fitBuffers)
	defer fb.release()
	fb.rows(s, samples)
	s.medianGamma(fb, rand.New(rand.NewSource(s.seed+2)))
	s.draws = drawsFor(s.seed, d)
	s.scale = math.Sqrt(2 * s.gamma)
	s.we = make([]float64, numFeatures)
	s.wp, s.b = 0, 0

	fb.feat = resize(fb.feat, len(fb.src)*numFeatures)
	for r := range fb.src {
		s.draws.features(fb.featureRow(int32(r)), fb.x[r*d:(r+1)*d], s.scale)
	}
	ps, ys := resize(fb.p, n), resize(fb.y, n)
	fb.p, fb.y = ps, ys
	for i, sm := range samples {
		ps[i] = s.normP(sm.Parallelism)
		ys[i] = -1
		if sm.Label == 1 {
			ys[i] = 1
		}
	}

	// Cost-sensitive hinge: weight the minority bottleneck class up so
	// that imbalanced histories (over-provisioned runs dominate) do not
	// collapse the model to "never a bottleneck".
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
	order := rng.Perm(n)
	we := (*[numFeatures]float64)(s.we)
	t := 0
	// Polyak averaging over the second half of training damps the
	// variance of the stochastic subgradient path, keeping repeated
	// refits (Algorithm 2 refits every iteration) stable.
	avgWe := &fb.avg
	clear(avgWe[:])
	var avgWp, avgB float64
	avgCount := 0
	avgFrom := s.Epochs / 2
	for ep := 0; ep < s.Epochs; ep++ {
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		// f is the margin of the step's sample under the weights the step
		// starts from. Each step computes the next sample's inside its
		// update loop, adding the terms in the same k order.
		i := order[0]
		f := s.b + s.wp*ps[i]
		for k, zk := range fb.featureRow(fb.row[i]) {
			f += we[k] * zk
		}
		for step, i := range order {
			t++
			lr := 1 / (s.Lambda * float64(t+100))
			shrink := 1 - lr*s.Lambda // L2 shrinkage
			hinge := ys[i]*f < 1
			var c float64
			s.wp *= shrink
			if hinge {
				w := 1.0
				if ys[i] > 0 {
					w = posWeight
				}
				c = lr * w * ys[i]
				s.wp += c * ps[i]
				s.b += c * 0.1
			}
			// Monotonic projection (Eq. 5: wp <= 0).
			if s.wp > 0 {
				s.wp = 0
			}
			// The last step of an epoch scores a throwaway; the next epoch
			// rescores its first sample after the shuffle.
			next := i
			if step+1 < n {
				next = order[step+1]
			}
			zi, zn := fb.featureRow(fb.row[i]), fb.featureRow(fb.row[next])
			f = s.b + s.wp*ps[next]
			if hinge {
				for k := range we {
					// The explicit conversion rounds the shrunk weight
					// before the update is added, as the separate shrink
					// pass did, so no platform fuses the two.
					v := float64(we[k] * shrink)
					we[k] = v + c*zi[k]
					f += we[k] * zn[k]
				}
			} else {
				for k := range we {
					we[k] *= shrink
					f += we[k] * zn[k]
				}
			}
		}
		if ep >= avgFrom {
			for k := range avgWe {
				avgWe[k] += we[k]
			}
			avgWp += s.wp
			avgB += s.b
			avgCount++
		}
	}
	if avgCount > 0 {
		for k := range avgWe {
			we[k] = avgWe[k] / float64(avgCount)
		}
		s.wp = avgWp / float64(avgCount)
		s.b = avgB / float64(avgCount)
		if s.wp > 0 {
			s.wp = 0
		}
	}
	return nil
}

// Predict implements Model, mapping the margin through a scaled sigmoid.
func (s *SVM) Predict(emb []float64, p int) float64 {
	if s.we == nil {
		return 0.5
	}
	var z [numFeatures]float64
	s.row(&z, emb)
	return s.probability(&z, p)
}

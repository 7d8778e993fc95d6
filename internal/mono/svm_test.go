package mono

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestSVMConcurrentUse queries one fitted SVM from four goroutines while
// two other SVMs fit, sharing the buffer pool and the draws cache. Run
// under -race; every answer must equal the serial one.
func TestSVMConcurrentUse(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	set := sharedSet(rng, 50, 16, 40)
	m := NewSVM(40, 7)
	m.Epochs = 6
	if err := m.Fit(set); err != nil {
		t.Fatal(err)
	}
	probes := probesFor(rng, set, 16)
	type answer struct {
		pred [41]float64
		min  int
	}
	serial := make([]answer, len(probes))
	for i, emb := range probes {
		for p := 1; p <= 40; p++ {
			serial[i].pred[p] = m.Predict(emb, p)
		}
		serial[i].min = MinNonBottleneck(m, emb, 40, 0.4)
	}

	other := []*SVM{NewSVM(40, 7), NewSVM(30, 8)}
	otherSets := [][]Sample{sharedSet(rng, 60, 16, 40), sharedSet(rng, 30, 4, 30)}
	var wg sync.WaitGroup
	for g := range other {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			other[g].Epochs = 4
			for r := 0; r < 3; r++ {
				if err := other[g].Fit(otherSets[g]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				for i, emb := range probes {
					for p := 1 + g; p <= 40; p += 4 {
						if got := m.Predict(emb, p); math.Float64bits(got) != math.Float64bits(serial[i].pred[p]) {
							t.Errorf("concurrent Predict(probe %d, %d) = %v, serial %v", i, p, got, serial[i].pred[p])
							return
						}
					}
					if got := MinNonBottleneck(m, emb, 40, 0.4); got != serial[i].min {
						t.Errorf("concurrent MinNonBottleneck(probe %d) = %d, serial %d", i, got, serial[i].min)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// benchSet is a tuner-sized training set: 990 samples over 275 distinct
// 32-dimensional embedding slices, each shared 3.6 times on average.
func benchSet() []Sample {
	rng := rand.New(rand.NewSource(53))
	return sharedSet(rng, 220, 32, 100)
}

func BenchmarkSVMFit(b *testing.B) {
	samples := benchSet()
	m := NewSVM(100, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Fit(samples); err != nil {
			b.Fatal(err)
		}
	}
}

var benchMinSink int

func BenchmarkMinNonBottleneck(b *testing.B) {
	samples := benchSet()
	m := NewSVM(100, 1)
	if err := m.Fit(samples); err != nil {
		b.Fatal(err)
	}
	emb := samples[0].Embedding
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchMinSink = MinNonBottleneck(m, emb, 100, 0.4)
	}
}

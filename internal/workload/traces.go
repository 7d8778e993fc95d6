package workload

import (
	"math"
	"math/rand"
)

// Trace is a named sequence of fractional source-rate multipliers used
// by the adversarial-traffic scenario benchmarks. Unlike the periodic
// Pattern (integer multipliers replicating the paper's §V-A schedule),
// traces model traffic shapes the paper does not evaluate: bursty
// spikes, diurnal cycles, and skewed heavy-tail load.
type Trace struct {
	Name string
	// Multipliers holds per-step factors of the query's rate unit Wu,
	// each in [1, 10] — the same envelope as the periodic schedule, so
	// the engine semantics (and the pre-training rate range) still hold.
	Multipliers []float64
}

// Len reports the number of rate changes in the trace.
func (t Trace) Len() int { return len(t.Multipliers) }

// Rates materializes the trace against a rate unit Wu, in
// records/second.
func (t Trace) Rates(wu float64) []float64 {
	out := make([]float64, len(t.Multipliers))
	for i, m := range t.Multipliers {
		out[i] = m * wu
	}
	return out
}

// clampMultiplier keeps a multiplier inside the evaluation envelope.
func clampMultiplier(m float64) float64 {
	return math.Min(10, math.Max(1, m))
}

// BurstyTrace generates a low-baseline load punctuated by short bursts:
// the workload idles near 2 x Wu and spikes to 8-10 x Wu for one to
// three consecutive steps, with a seeded 15% chance of a burst starting
// at any baseline step. Deterministic per (seed, n).
func BurstyTrace(seed int64, n int) Trace {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, 0, n)
	for len(out) < n {
		if rng.Float64() < 0.15 {
			peak := 8 + 2*rng.Float64()
			for steps := 1 + rng.Intn(3); steps > 0 && len(out) < n; steps-- {
				out = append(out, clampMultiplier(peak+0.3*rng.NormFloat64()))
			}
			continue
		}
		out = append(out, clampMultiplier(2+0.5*rng.NormFloat64()))
	}
	return Trace{Name: "bursty", Multipliers: out}
}

// DiurnalPeriod is the number of steps in one simulated day of the
// diurnal trace.
const DiurnalPeriod = 24

// DiurnalTrace generates a smooth day/night cycle: a sinusoid between
// roughly 1 x and 10 x Wu with period DiurnalPeriod and small seeded
// jitter, so consecutive steps change gradually instead of jumping.
// Deterministic per (seed, n).
func DiurnalTrace(seed int64, n int) Trace {
	rng := rand.New(rand.NewSource(seed))
	phase := 2 * math.Pi * rng.Float64()
	out := make([]float64, n)
	for i := range out {
		base := 5.5 + 4.2*math.Sin(2*math.Pi*float64(i)/DiurnalPeriod+phase)
		out[i] = clampMultiplier(base + 0.2*rng.NormFloat64())
	}
	return Trace{Name: "diurnal", Multipliers: out}
}

// SkewedTrace generates heavy-tail load modeling skewed key popularity:
// most steps sit near the low end while a Zipf-like tail occasionally
// drives the hot partition to the ceiling. Multipliers are drawn as
// 1 + 9*u^4 for uniform u, so the median stays below 2 x Wu but the
// top decile approaches 10 x Wu. Deterministic per (seed, n).
func SkewedTrace(seed int64, n int) Trace {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		u := rng.Float64()
		out[i] = clampMultiplier(1 + 9*math.Pow(u, 4))
	}
	return Trace{Name: "skewed", Multipliers: out}
}

// ScenarioTraces returns the adversarial trace set (bursty, diurnal,
// skewed) for one seed, in stable order; the benchmark's rate-trace
// workload replays it.
func ScenarioTraces(seed int64, n int) []Trace {
	return []Trace{
		BurstyTrace(seed, n),
		DiurnalTrace(seed+1, n),
		SkewedTrace(seed+2, n),
	}
}

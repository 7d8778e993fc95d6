package main

import (
	"math"
	"sort"
	"time"
)

// The estimator behind every timing metric. A script's units are
// replayed for R rounds; interference on a shared box only ever adds
// time to a unit, so the minimum over rounds is the estimate of a
// unit's undisturbed cost, a task's time is the sum of its units'
// minima, and everything else (mean, p90, throughput) derives from
// those sums. Units are tens of milliseconds at most and fit into the
// quiet gaps between bursts; whole rounds do not, which is why a run
// mean or a per-round quartile is not used (README.md has the sizing).

// percentile returns the q-quantile (0 < q <= 1) of an ascending-sorted
// slice by the nearest-rank rule: the smallest element with at least
// q*n elements at or below it, index ceil(q*n)-1. One convention for
// every quantile in the benchmark (the seed's latencyQuantiles used
// n/2 for p50 and (n-1)*99/100 for p99).
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// sortedCopy returns an ascending copy of v.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// timings holds every round of a run: rounds[r].took[u] is unit u's
// measured time in round r, rounds[r].ratio[u] the clock ratio it is
// divided by (calibrate.go; a round without ratios counts as all ones).
type timings struct {
	rounds []roundResult
}

func (t *timings) add(r roundResult) { t.rounds = append(t.rounds, r) }

// at is unit u's time in round r in milliseconds, clock-normalised or
// as measured.
func (t *timings) at(r, u int, normalised bool) float64 {
	v := ms(t.rounds[r].took[u])
	if normalised && t.rounds[r].ratio != nil {
		v /= t.rounds[r].ratio[u]
	}
	return v
}

// best returns each unit's minimum over the rounds of its
// clock-normalised time, in milliseconds.
func (t *timings) best() []float64 { return t.bestOf(true) }

// bestRaw is best without the clock normalisation: the diagnostic the
// normalised figure is printed beside.
func (t *timings) bestRaw() []float64 { return t.bestOf(false) }

func (t *timings) bestOf(normalised bool) []float64 {
	if len(t.rounds) == 0 {
		return nil
	}
	out := make([]float64, len(t.rounds[0].took))
	for u := range out {
		out[u] = math.Inf(1)
		for r := range t.rounds {
			out[u] = math.Min(out[u], t.at(r, u, normalised))
		}
	}
	return out
}

// busiest is how long, in milliseconds, the busiest client needs for
// one round: what throughput is tasks per round divided by. With one
// client it is the sum of the unit minima. With several, a unit's own
// minimum falls on a moment when the other clients were idle or cheap,
// so a sum of unit minima cancels exactly the contention that several
// clients are there to show (a lock that serialises requests does not
// move it). The minimum is therefore taken per task, not per unit: a
// task's time is the fastest round's sum of its units, the other
// clients busy beside it from its register to its release, and a
// client's time is the sum of its tasks' times. A whole round (a few
// hundred milliseconds on two cores) fits no quiet gap on this box; a
// task (a few tens) does.
func (t *timings) busiest(clients int, client, task func(u int) int) float64 {
	if clients == 1 {
		var sum float64
		for _, v := range t.best() {
			sum += v
		}
		return sum
	}
	units := len(t.rounds[0].took)
	tasks := 0
	for u := 0; u < units; u++ {
		tasks = max(tasks, task(u)+1)
	}
	taskBest := make([]float64, tasks)
	for i := range taskBest {
		taskBest[i] = math.Inf(1)
	}
	taskClient := make([]int, tasks)
	for r := range t.rounds {
		inRound := make([]float64, tasks)
		for u := 0; u < units; u++ {
			inRound[task(u)] += t.at(r, u, true)
			taskClient[task(u)] = client(u)
		}
		for i, v := range inRound {
			taskBest[i] = math.Min(taskBest[i], v)
		}
	}
	perClient := sumBy(taskBest, clients, func(i int) int { return taskClient[i] })
	return sortedCopy(perClient)[clients-1]
}

// meanRatio is the mean clock ratio over every unit of every round.
func (t *timings) meanRatio() float64 {
	var sum float64
	n := 0
	for _, r := range t.rounds {
		for _, v := range r.ratio {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}

// noiseRatio is the sum of the units' medians over the sum of their
// minima: how much slower a typical round ran than the quiet-gap
// estimate. About 1.2 on a quiet box, 1.35 and up on a noisy one, so a
// result file carrying it identifies a disturbed run by itself.
func (t *timings) noiseRatio() float64 {
	if len(t.rounds) == 0 {
		return 0
	}
	var sumMed, sumMin float64
	col := make([]float64, len(t.rounds))
	for u := range t.rounds[0].took {
		for r := range t.rounds {
			col[r] = t.at(r, u, false)
		}
		sort.Float64s(col)
		sumMed += percentile(col, 0.5)
		sumMin += col[0]
	}
	if sumMin == 0 {
		return 0
	}
	return sumMed / sumMin
}

// sumBy adds the per-unit values into buckets[key(u)].
func sumBy(values []float64, n int, key func(u int) int) []float64 {
	out := make([]float64, n)
	for u, v := range values {
		out[key(u)] += v
	}
	return out
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

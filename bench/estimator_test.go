package main

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestPercentileIndex pins the one quantile convention of the
// benchmark: nearest rank, index ceil(q*n)-1.
func TestPercentileIndex(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i) // value == index
		}
		return v
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
	}{
		{1, 0.5, 0}, {1, 0.9, 0}, {1, 1, 0},
		{2, 0.5, 0}, {2, 0.9, 1},
		{3, 0.5, 1},
		{4, 0.5, 1}, {4, 0.75, 2},
		{10, 0.5, 4}, {10, 0.9, 8}, {10, 0.99, 9}, {10, 1, 9},
		{24, 0.5, 11}, {24, 0.9, 21},
		{40, 0.9, 35},
		{80, 0.9, 71},
		{100, 0.5, 49}, {100, 0.9, 89}, {100, 0.99, 98},
		{101, 0.5, 50}, {101, 0.99, 99},
		{1000, 0.999, 998},
		{10, 0.0001, 0}, // never below the first element
	} {
		if got := percentile(seq(tc.n), tc.q); got != tc.want {
			t.Errorf("percentile(n=%d, q=%v) = index %v, want %v", tc.n, tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
}

// TestQuartilesMatchPython pins quartiles against values computed with
// Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3, 9, 2, 8, 4, 6, 5}, 2.75, 8.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{47.0, 47.3, 47.6, 47.7, 48.7, 51.9, 82.8}, 47.3, 51.9},
		{[]float64{5, 7}, 4.5, 7.5},
	} {
		q1, q3 := quartiles(tc.v)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.v, q1, q3, tc.q1, tc.q3)
		}
	}
}

// TestBestOfRoundsRecoversUnderBursts feeds the estimator synthetic
// units whose true costs are known, disturbed by additive burst noise
// that covers up to 70% of every unit's rounds, and requires the task mean, the
// task p90 and the throughput derived from the unit minima to come back
// within 2% — where a run mean is off by tens of percent.
func TestBestOfRoundsRecoversUnderBursts(t *testing.T) {
	const (
		tasks        = 24
		unitsPerTask = 5
		rounds       = 12
	)
	for _, cover := range []float64{0.1, 0.3, 0.5, 0.7} {
		rng := rand.New(rand.NewSource(int64(1000 * cover)))
		units := make([]unit, tasks*unitsPerTask)
		truth := make([]float64, len(units)) // ms
		for u := range units {
			units[u].task = u / unitsPerTask
			truth[u] = 0.1 + 30*rng.Float64() // 0.1 to 30 ms, like the real units
		}
		var tm timings
		for r := 0; r < rounds; r++ {
			// Bursts are shorter than a round: each unit of each round is
			// hit on its own with probability cover and then runs 20-150%
			// slow; small always-positive jitter everywhere.
			round := make([]time.Duration, len(units))
			for u := range round {
				v := truth[u] * (1 + 0.01*rng.Float64())
				if rng.Float64() < cover {
					v += truth[u] * (0.2 + 1.3*rng.Float64())
				}
				round[u] = time.Duration(v * float64(time.Millisecond))
			}
			tm.add(roundResult{took: round})
		}
		// With 12 rounds and 70% coverage a unit is hit in every round
		// with probability 0.7^12 = 1.4%, and then by its mildest burst.
		best := tm.best()
		key := func(u int) int { return units[u].task }
		gotTasks := sumBy(best, tasks, key)
		wantTasks := sumBy(truth, tasks, key)
		check := func(what string, got, want float64) {
			if rel := math.Abs(got-want) / want; rel > 0.02 {
				t.Errorf("cover %.0f%%: %s = %.4f, truth %.4f (off by %.1f%%)", 100*cover, what, got, want, 100*rel)
			}
		}
		check("task mean", mean(gotTasks), mean(wantTasks))
		check("task p90", percentile(sortedCopy(gotTasks), 0.9), percentile(sortedCopy(wantTasks), 0.9))
		var gotSum, wantSum float64
		for u := range best {
			gotSum += best[u]
			wantSum += truth[u]
		}
		check("tasks per second", tasks/gotSum, tasks/wantSum)

		// The run mean, for contrast, must be visibly wrong once bursts
		// cover a third of the rounds: that is the estimator PR 12 and
		// PR 13 gated on.
		if cover >= 0.3 {
			var all float64
			for _, r := range tm.rounds {
				for _, d := range r.took {
					all += ms(d)
				}
			}
			if runMean := all / rounds; runMean < 1.1*wantSum {
				t.Errorf("cover %.0f%%: run mean %.1f is within 10%% of the truth %.1f; the noise model is too gentle to test anything", 100*cover, runMean, wantSum)
			}
		}
		if nr := tm.noiseRatio(); cover >= 0.7 && nr < 1.2 {
			t.Errorf("cover %.0f%%: noise ratio %.3f does not flag a disturbed run", 100*cover, nr)
		}
	}
}

// TestBusiestKeepsContention is why throughput with several clients is
// not a sum of unit minima. Two clients share a lock: a unit waits for
// it whenever the other client's unit overlaps, which is nearly always,
// but the clients drift against each other, so over the rounds every
// unit meets a moment when the other client was between units. Summing
// the unit minima reads that as no contention at all; the minimum per
// task keeps most of it, because no round lets a whole task through
// without a wait. A single client has nobody to wait for and reads the
// sum of the unit minima either way.
func TestBusiestKeepsContention(t *testing.T) {
	const (
		tasksPerClient = 8
		unitsPerTask   = 5
		perClient      = tasksPerClient * unitsPerTask
		rounds         = 24
		work           = 10.0 // ms of a unit's own work
		wait           = 8.0  // ms it waits when the other client holds the lock
	)
	rng := rand.New(rand.NewSource(5))
	units := make([]unit, 2*perClient)
	for u := range units {
		units[u].task = u / unitsPerTask
		units[u].client = units[u].task % 2
	}
	client := func(u int) int { return units[u].client }
	task := func(u int) int { return units[u].task }
	var free, locked timings
	for r := 0; r < rounds; r++ {
		a := roundResult{took: make([]time.Duration, len(units))}
		b := roundResult{took: make([]time.Duration, len(units))}
		for u := range units {
			a.took[u] = time.Duration(work * float64(time.Millisecond))
			v := work
			if rng.Float64() < 0.85 { // one look in seven finds the lock free
				v += wait
			}
			b.took[u] = time.Duration(v * float64(time.Millisecond))
		}
		free.add(a)
		locked.add(b)
	}
	if got, want := free.busiest(2, client, task), perClient*work; math.Abs(got-want) > 1e-6 {
		t.Errorf("uncontended: busiest client = %.1f ms, want %.1f", got, want)
	}
	sumOfMinima := sumBy(locked.best(), 2, client)
	if sumOfMinima[0] > 1.02*perClient*work {
		t.Fatalf("the sum of unit minima reads %.1f ms: the noise model leaves no free moment to find, so the test shows nothing", sumOfMinima[0])
	}
	// Binomial(5, 0.85) waits per task and round: the luckiest of 24
	// rounds still keeps two or three of a task's five.
	if got, atLeast := locked.busiest(2, client, task), perClient*work+2*tasksPerClient*wait; got < atLeast {
		t.Errorf("contended: busiest client = %.1f ms, want at least %.1f (the sum of unit minima reads %.1f)", got, atLeast, sumOfMinima[0])
	}
	one := func(int) int { return 0 }
	if got, want := locked.busiest(1, one, task), sumOfMinima[0]+sumOfMinima[1]; math.Abs(got-want) > 1e-6 {
		t.Errorf("one client: busiest = %.1f ms, want the sum of the unit minima %.1f", got, want)
	}
}

// TestClockRatioScalesEachUnitByItsOwnReading: a unit that ran in a slow
// state is scaled back, its neighbour in the same round that ran in the
// fast state is left alone.
func TestClockRatioScalesEachUnitByItsOwnReading(t *testing.T) {
	var tm timings
	tm.add(roundResult{
		took:  []time.Duration{11 * time.Millisecond, 10 * time.Millisecond},
		ratio: []float64{1.1, 1},
	})
	best, raw := tm.best(), tm.bestRaw()
	if math.Abs(best[0]-10) > 1e-9 || best[1] != 10 {
		t.Errorf("normalised = %v, want [10 10]", best)
	}
	if raw[0] != 11 || raw[1] != 10 {
		t.Errorf("raw = %v, want [11 10]", raw)
	}
	for _, tc := range []struct{ before, after, want float64 }{
		{clockRefUS, 60, 1},                       // a burst after the unit: the faster reading counts
		{1.1 * clockRefUS, 1.2 * clockRefUS, 1.1}, // a slow state on both sides
		{30, 30, 1}, // a faster machine: nothing is scaled
		{3 * clockRefUS, 3 * clockRefUS, clockMaxRatio}, // bursts all through: capped
	} {
		if got := ratioOf(tc.before, tc.after); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("ratioOf(%v, %v) = %v, want %v", tc.before, tc.after, got, tc.want)
		}
	}
}

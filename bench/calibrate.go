package main

import "time"

// Clock normalisation. The box this benchmark is gated on does not run at
// one speed: neighbours come and go, and for seconds or minutes at a
// time everything that touches the shared caches runs slower. The unit
// minimum over a handful of rounds removes bursts of a few milliseconds.
// It cannot remove a state that outlasts the run: a run that never meets
// the fast state reads 10-25% high however many quiet gaps it finds,
// which is what separated the slow runs from the fast ones when the
// minimum was used alone.
//
// So every unit is bracketed by readings of the clock: a fixed kernel is
// timed a few times just before the unit and a few times just after it,
// the fastest of those samples is the state the unit ran in (bursts only
// add), and the unit's time is scaled to the reference reading before
// the minimum over rounds is taken. No unit is scaled by a reading taken
// around another one. The unscaled figures are printed beside the scaled
// ones on every run (bench.task_ms_raw, bench.clock_ratio) and the
// committed repeat sets carry both.
//
// The kernel has to slow down as the work under test does. An
// L1-resident chain of dot products does not: it reads 38.7, 42.4 or
// 51 us on this box while the tasks beside it slow two to three times as
// much (in log terms), so scaling by it left task_ms rising with the
// run's mean reading (README.md has the runs). The kernel here has the
// fits' own shape and moves as they do.

const (
	// clockRefUS is the kernel's reading in the fast state of the sizing
	// box. Readings at or below it leave times untouched, so on a faster
	// machine nothing is scaled and the estimator is the plain minimum.
	clockRefUS = 55.0
	// clockMaxRatio caps the correction past the slowest lasting state
	// seen (readings of 90-100 us): a reading beyond it means every
	// sample sat in a burst, and bursts are the minimum's job.
	clockMaxRatio = 2.5
	// clockSamples is how many kernel runs make one reading.
	clockSamples = 4
)

// The kernel is one stochastic-gradient pass in a fixed shuffled order
// over 256 rows scattered through a 1 MiB matrix: the access pattern and
// the arithmetic of the mono fits that are nine tenths of every task,
// written out here so that no change to the code under test changes it.
const (
	clockRows, clockCols = 1024, 128
	clockPass            = 256 // rows one kernel run visits
)

var (
	clockMat   [clockRows][clockCols]float64
	clockOrder [clockPass]int
	clockSink  float64
)

func init() {
	x := uint64(88172645463325252) // xorshift64
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range clockMat {
		for k := range clockMat[i] {
			clockMat[i][k] = float64(next()%2000)/1000 - 1
		}
	}
	for i := range clockOrder {
		clockOrder[i] = int(next() % clockRows)
	}
}

// clockKernel runs the reference kernel once, from the same weights
// over the same rows every time, and returns how long it took in
// microseconds.
func clockKernel() float64 {
	var w [clockCols]float64
	t0 := time.Now()
	for _, i := range clockOrder {
		row := &clockMat[i]
		f := 0.0
		for k, x := range row {
			f += w[k] * x
		}
		for k := range w {
			w[k] *= 0.9999
		}
		if f < 1 {
			for k, x := range row {
				w[k] += 1e-2 * x
			}
		}
	}
	clockSink = w[0]
	return float64(time.Since(t0).Nanoseconds()) / 1000
}

// readClock is one reading: the fastest of clockSamples kernel runs.
func readClock() float64 {
	best := clockKernel()
	for i := 1; i < clockSamples; i++ {
		if v := clockKernel(); v < best {
			best = v
		}
	}
	return best
}

// unitClock brackets one client's consecutive units with clock
// readings. The reading after a unit doubles as the reading before the
// next; mark takes a fresh one where other work ran in between.
type unitClock struct{ before float64 }

func (c *unitClock) mark() { c.before = readClock() }

// ratio reads the clock after a unit and returns the factor the unit's
// time is divided by.
func (c *unitClock) ratio() float64 {
	after := readClock()
	r := ratioOf(c.before, after)
	c.before = after
	return r
}

// ratioOf is the faster of the two readings around a unit over the
// reference, within [1, clockMaxRatio].
func ratioOf(before, after float64) float64 {
	return min(max(min(before, after)/clockRefUS, 1), clockMaxRatio)
}

package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"github.com/streamtune/streamtune/internal/dag"
	"github.com/streamtune/streamtune/internal/engine"
	"github.com/streamtune/streamtune/internal/experiments"
	"github.com/streamtune/streamtune/internal/streamtune"
	"github.com/streamtune/streamtune/internal/workload"
)

// The rate-trace workload: no HTTP, no service. A caller-owned
// streamtune.Tuner lives through a trace of source-rate changes, one
// tuning process per change, the way the scenario bench drives it. The
// tuner keeps its fine-tuning set across processes, so fits grow towards
// the 2000-sample cap and every Start distills the target again: the fit
// layer at its heaviest with the HTTP and service layers absent.
//
// Round 0 records with Tuner.Tune against the live engine; that run is
// the sequential reference. The replay rounds take the same process by
// hand — Start, then Step and Observe until done, which Tune is a thin
// driver over — so that a unit is one call of at most one fit, not a
// whole process of several: sizing with whole Tune calls as units (40-150
// ms each, 4-6 rounds) left a 25% spread between runs on a noisy box.

const (
	// traceSeed fixes the traces. Like the artifact they are part of the
	// system's input set, not of the script: a different trace seed
	// moves the exact counts by 10-70% (sizing: backpressure windows
	// per task 0.17-0.28 over seeds 2-5), so -seed draws the order the
	// cells run in instead.
	traceSeed = 1
	// traceSteps is the length of every trace.
	traceSteps = 6
)

// traceCell is one (workload, trace) pair a tuner lives through.
type traceCell struct {
	name     string
	workload experiments.Workload
	trace    workload.Trace
}

// traceCells returns (Nexmark)Q5 x {bursty, diurnal, skewed} and
// (PQP)3-way-join x diurnal, in an order drawn from seed.
func traceCells(workloads []experiments.Workload, seed int64) ([]traceCell, error) {
	byName := map[string]experiments.Workload{}
	for _, w := range workloads {
		byName[w.Name] = w
	}
	q5, ok1 := byName["(Nexmark)Q5"]
	join, ok2 := byName["(PQP)3-way-join"]
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("rate-trace: Flink workloads lack (Nexmark)Q5 or (PQP)3-way-join")
	}
	traces := workload.ScenarioTraces(traceSeed, traceSteps)
	var cells []traceCell
	for _, tr := range traces {
		cells = append(cells, traceCell{name: "q5/" + tr.Name, workload: q5, trace: tr})
	}
	diurnal := traces[1]
	cells = append(cells, traceCell{name: "3-way-join/" + diurnal.Name, workload: join, trace: diurnal})
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	return cells, nil
}

// tuneRecord is one Tune call's recorded conversation with its system.
type tuneRecord struct {
	multiplier float64
	deploys    []map[string]int
	metrics    []*engine.JobMetrics
	final      map[string]int
}

// recordingSystem is the live simulated engine with a tape recorder on
// Deploy and Run.
type recordingSystem struct {
	*engine.Engine
	rec   *tuneRecord
	tally *tally
}

func (s *recordingSystem) Deploy(p map[string]int) error {
	cp := make(map[string]int, len(p))
	for k, v := range p {
		cp[k] = v
	}
	s.rec.deploys = append(s.rec.deploys, cp)
	return s.Engine.Deploy(p)
}

func (s *recordingSystem) Run() (*engine.JobMetrics, error) {
	t0 := time.Now()
	m, err := s.Engine.Run()
	s.tally.engineRun += time.Since(t0)
	s.tally.engineRuns++
	if err == nil {
		s.rec.metrics = append(s.rec.metrics, m)
	}
	return m, err
}

// traceRecording is the recorded rate-trace script: per cell, per step.
type traceRecording struct {
	cells  []traceCell
	graphs []*dag.Graph // per cell, source rates rewritten before each step
	steps  [][]tuneRecord
	tuners []*streamtune.Tuner // the recording's tuners, kept as resident state
	units  []unit
	tally  tally
}

// deployOnes brings a fresh engine up at parallelism one everywhere,
// the state every trace starts from.
func deployOnes(eng *engine.Engine) error {
	ones := make(map[string]int, eng.Graph().NumOperators())
	for _, op := range eng.Graph().Operators() {
		ones[op.ID] = 1
	}
	return eng.Deploy(ones)
}

// recordTraces is round 0: every cell's tuner lives through its trace
// against the live engine. These sequential caller-owned Tune calls are
// the reference the replay rounds are compared with.
func recordTraces(pt *streamtune.PreTrained, cells []traceCell, cfg engine.Config) (*traceRecording, error) {
	rec := &traceRecording{cells: cells}
	for _, cell := range cells {
		eng, err := engine.New(cell.workload.Graph.Clone(), cfg)
		if err != nil {
			return nil, err
		}
		if err := deployOnes(eng); err != nil {
			return nil, err
		}
		tuner, err := streamtune.NewTuner(pt, eng.Graph())
		if err != nil {
			return nil, err
		}
		steps := make([]tuneRecord, len(cell.trace.Multipliers))
		for si, mult := range cell.trace.Multipliers {
			cell.workload.SetRate(eng.Graph(), mult)
			step := &steps[si]
			step.multiplier = mult
			res, err := tuner.Tune(&recordingSystem{Engine: eng, rec: step, tally: &rec.tally})
			if err != nil {
				return nil, fmt.Errorf("rate-trace %s step %d: %w", cell.name, si, err)
			}
			step.final = res.Parallelism
			rec.tally.tasks++
			rec.tally.reconfigurations += res.Reconfigurations
			rec.tally.backpressure += res.BackpressureEvents
			rec.tally.observations += len(step.metrics)
			if err := rec.tally.addFinal(res.Parallelism, eng.Graph(), cfg); err != nil {
				return nil, err
			}
		}
		rec.graphs = append(rec.graphs, cell.workload.Graph.Clone())
		rec.steps = append(rec.steps, steps)
		rec.tuners = append(rec.tuners, tuner)
	}
	return rec, nil
}

// driveByHand takes one recorded tuning process by hand, answered from
// the tape, and hands every call's kind and duration to emit. It reports
// whether deployments, measurement windows and the final recommendation
// all matched the recording.
func driveByHand(tuner *streamtune.Tuner, g *dag.Graph, cfg engine.Config, step *tuneRecord, emit func(unitKind, time.Duration)) (bool, error) {
	t0 := time.Now()
	proc, err := tuner.Start(g, cfg)
	emit(kindStart, time.Since(t0))
	if err != nil {
		return false, err
	}
	ok := true
	di, mi := 0, 0
	for {
		t0 = time.Now()
		rec, deploy, done, err := proc.Step()
		emit(kindStep, time.Since(t0))
		if err != nil {
			return false, err
		}
		if done {
			break
		}
		if deploy {
			if di >= len(step.deploys) || !reflect.DeepEqual(rec, step.deploys[di]) {
				ok = false
			}
			di++
		}
		if mi >= len(step.metrics) {
			// The process asks for a window the recording never
			// produced: it has diverged and cannot be taken further.
			return false, nil
		}
		m := step.metrics[mi]
		mi++
		t0 = time.Now()
		done, err = proc.Observe(m)
		emit(kindObserve, time.Since(t0))
		if err != nil {
			return false, err
		}
		if done {
			break
		}
	}
	return ok && di == len(step.deploys) && mi == len(step.metrics) &&
		reflect.DeepEqual(proc.Result().Parallelism, step.final), nil
}

// replayTraces replays the recording once with fresh tuners (building
// them is off the clock) and returns each call's duration and the number
// of tuning processes that diverged from the recording. The first replay
// lays the units out; later ones must issue the same calls.
func replayTraces(pt *streamtune.PreTrained, rec *traceRecording, cfg engine.Config) (roundResult, error) {
	layout := rec.units == nil
	res := roundResult{took: make([]time.Duration, 0, len(rec.units))}
	var clk unitClock
	task := 0
	for ci, cell := range rec.cells {
		g := rec.graphs[ci]
		tuner, err := streamtune.NewTuner(pt, g)
		if err != nil {
			return res, err
		}
		for si := range rec.steps[ci] {
			step := &rec.steps[ci][si]
			cell.workload.SetRate(g, step.multiplier)
			var structural error
			clk.mark()
			ok, err := driveByHand(tuner, g, cfg, step, func(kind unitKind, d time.Duration) {
				ui := len(res.took)
				res.took = append(res.took, d)
				res.ratio = append(res.ratio, clk.ratio())
				switch {
				case layout:
					rec.units = append(rec.units, unit{task: task, kind: kind})
				case ui >= len(rec.units) || rec.units[ui].kind != kind || rec.units[ui].task != task:
					structural = fmt.Errorf("call %d is a %s of task %d, not what the first replay issued", ui, kind, task)
				}
			})
			if err == nil {
				err = structural
			}
			if err != nil {
				return res, fmt.Errorf("rate-trace replay %s step %d: %w", cell.name, si, err)
			}
			if !ok {
				res.failed++
			}
			task++
		}
	}
	if !layout && len(res.took) != len(rec.units) {
		return res, fmt.Errorf("rate-trace replay issued %d calls, the first replay %d", len(res.took), len(rec.units))
	}
	return res, nil
}

// runRateTrace runs the rate-trace workload.
func runRateTrace(def workloadDef, rc runConfig) (*result, error) {
	res := &result{Workload: def.name, Seed: rc.seed, started: time.Now()}
	workloads, err := experiments.FlinkWorkloads(rc.opts)
	if err != nil {
		return nil, err
	}
	cells, err := traceCells(workloads, rc.seed)
	if err != nil {
		return nil, err
	}
	cfg := engineConfig(rc.opts)

	// Set-up: corpus, PreTrain, and one cold task per distinct structure
	// on a tuner of its own.
	var pt *streamtune.PreTrained
	var setups []float64
	for i := 0; i < rc.coldSetups(); i++ {
		pt = nil
		runtime.GC()
		t0 := time.Now()
		if pt, err = pretrain(rc.opts); err != nil {
			return nil, err
		}
		seen := map[string]bool{}
		for _, cell := range cells {
			if seen[cell.workload.Name] {
				continue
			}
			seen[cell.workload.Name] = true
			j := newJob("cold", cell.workload, 5)
			eng, err := engine.New(j.graph, cfg)
			if err != nil {
				return nil, err
			}
			tuner, err := streamtune.NewTuner(pt, eng.Graph())
			if err != nil {
				return nil, err
			}
			if _, err := tuner.Tune(eng); err != nil {
				return nil, fmt.Errorf("cold task %s: %w", cell.workload.Name, err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	rec, err := recordTraces(pt, cells, cfg)
	if err != nil {
		return nil, fmt.Errorf("record: %w", err)
	}
	// The first by-hand replay is off the clock: it lays the units out
	// and checks the by-hand process against the Tune reference.
	first, err := replayTraces(pt, rec, cfg)
	if err != nil {
		return nil, err
	}
	res.Attempted += rec.tally.tasks
	res.Failed += first.failed
	if rc.corrupt {
		step := &rec.steps[0][len(rec.steps[0])/2]
		for k := range step.final {
			step.final[k]++
			break
		}
	}

	var t *traced
	seconds := rc.seconds
	if rc.trace {
		res.PerLayer = newPerLayer()
		var episodes []episode
		for _, cell := range cells {
			episodes = append(episodes, episode{workload: cell.workload, multipliers: cell.trace.Multipliers})
		}
		if err := baselineRows(res.PerLayer, episodes, cfg); err != nil {
			return nil, err
		}
		tr := newTracer()
		c, err := newLayerReplica(pt, tr)
		if err != nil {
			return nil, err
		}
		if t, err = tracedPass(rc, res, tr, c, func() (roundResult, error) {
			return tracedTraceRound(tr, pt, rec, cfg, c)
		}); err != nil {
			return nil, err
		}
		seconds = rc.seconds / 2
	}

	before := readProc()
	tm, err := measure(seconds, minRounds, res, func() (roundResult, error) {
		return replayTraces(pt, rec, cfg)
	})
	if err != nil {
		return nil, fmt.Errorf("replay %w", err)
	}
	after := readProc()

	res.Rounds = len(tm.rounds)
	res.Noise = tm.noiseRatio()
	if rc.trace {
		return res, finishTrace(res, rc, t, tm, tm, rec.units, rec.tally, before, after)
	}
	stateBytes := 0
	for _, t := range rec.tuners {
		data, err := json.Marshal(t.State())
		if err != nil {
			return nil, err
		}
		stateBytes += len(data)
	}
	res.EndToEnd = endToEnd(rec.units, tm, 1, rec.tally, setups, before, after)
	res.Diag = diagnostics(rec.units, tm, rec.tally)
	res.EndToEnd["live_heap_mb"] = liveHeapMB()
	res.EndToEnd["state_kb_per_session"] = float64(stateBytes) / 1024 / float64(len(rec.tuners))
	runtime.KeepAlive(rec)
	runtime.KeepAlive(pt)
	res.WallS = time.Since(res.started).Seconds()
	return res, nil
}

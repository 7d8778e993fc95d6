package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"github.com/streamtune/streamtune/internal/experiments"
	"github.com/streamtune/streamtune/internal/service"
)

// workloadDef is one benchmark workload.
type workloadDef struct {
	name    string
	clients int  // closed-loop clients, one connection each
	durable bool // script carries checkpoint and restore units
	http    bool // false: rate-trace, a caller-owned tuner with no service
}

var workloadDefs = []workloadDef{
	{name: "converge", clients: 1, http: true},
	{name: "fleet", clients: 2, http: true},
	{name: "durable", clients: 1, http: true, durable: true},
	{name: "rate-trace", clients: 1},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runConfig is what the command line asks of one workload run.
type runConfig struct {
	seed    int64
	seconds float64 // how long the replay rounds measure
	trace   bool
	corrupt bool   // damage the recording, to prove a mismatch fails the run
	outDir  string // where trace files go
	scratch string // where checkpoints go
	opts    experiments.Options
}

// result is everything one workload run measured.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Attempted int                `json:"ops_total"`
	Failed    int                `json:"ops_failed"`
	Rounds    int                `json:"rounds"`
	Noise     float64            `json:"noise_ratio"`
	WallS     float64            `json:"wall_s"`
	EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	// Diag is what an untraced run prints beside the end-to-end metrics
	// (per-layer names, never in the JSON line): the run's noise, and
	// task_ms without the clock normalisation.
	Diag map[string]float64 `json:"diagnostics,omitempty"`

	started time.Time
}

// coldSetupsPerRun is how many cold set-ups an untraced run takes;
// setup_s is their median.
const coldSetupsPerRun = 3

// coldSetups is how many cold set-ups this run takes: a traced run
// reports no setup_s and sets up once.
func (rc runConfig) coldSetups() int {
	if rc.trace {
		return 1
	}
	return coldSetupsPerRun
}

// minRounds is the fewest replay rounds a run takes however short
// -seconds is: the estimator needs a few looks at every unit.
const minRounds = 3

// procCounters is a point-in-time reading of the process-wide cost
// counters the per-task metrics are deltas of.
type procCounters struct {
	totalAlloc, mallocs uint64
	numGC               uint32
	cpu                 time.Duration
}

func readProc() procCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return procCounters{totalAlloc: m.TotalAlloc, mallocs: m.Mallocs, numGC: m.NumGC, cpu: cpu}
}

// rssPeakMB is the process's peak resident set so far.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// liveHeapMB is HeapAlloc after two collections: the first empties the
// sync.Pools' primary caches into their victim caches, the second drops
// those, so pooled plan buffers of whatever happened to run last do not
// count as resident state.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// coldSetups performs n cold set-ups of an HTTP workload — corpus,
// PreTrain, service behind its listener, one cold task per structure —
// and returns the last harness with every set-up's duration.
func coldSetups(n int, opts experiments.Options, workloads []experiments.Workload) (*harness, []float64, error) {
	var h *harness
	var took []float64
	for i := 0; i < n; i++ {
		if h != nil {
			h.close()
			h = nil
			runtime.GC() // the previous artifact is garbage; do not let it grow the next set-up's heap target
		}
		t0 := time.Now()
		pt, err := pretrain(opts)
		if err != nil {
			return nil, nil, err
		}
		h, err = newHarness(pt, opts)
		if err != nil {
			return nil, nil, err
		}
		if err := coldTasks(h.svc, workloads, opts, pt.Config.StabilizeWait); err != nil {
			h.close()
			return nil, nil, err
		}
		took = append(took, time.Since(t0).Seconds())
	}
	return h, took, nil
}

// referencePicks chooses the tasks whose final recommendation is checked
// against a sequential Tuner.Tune run: all of them on a traced run, one
// per workload structure (drawn by seed) otherwise — every response of
// every task is still compared with the recording on every round.
func referencePicks(tasks []taskSpec, all bool, seed int64) []int {
	if all {
		picks := make([]int, len(tasks))
		for i := range picks {
			picks[i] = i
		}
		return picks
	}
	byWorkload := map[string][]int{}
	var names []string
	for i, t := range tasks {
		if _, ok := byWorkload[t.workload.Name]; !ok {
			names = append(names, t.workload.Name)
		}
		byWorkload[t.workload.Name] = append(byWorkload[t.workload.Name], i)
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(seed))
	var picks []int
	for _, n := range names {
		picks = append(picks, byWorkload[n][rng.Intn(len(byWorkload[n]))])
	}
	return picks
}

// measure repeats round until doing one more would overrun seconds (but
// at least min times) and collects every round's unit durations.
func measure(seconds float64, min int, res *result, round func() (roundResult, error)) (*timings, error) {
	tm := &timings{}
	start := time.Now()
	for {
		if n := float64(len(tm.rounds)); int(n) >= min && time.Since(start).Seconds()*(n+1)/n > seconds {
			return tm, nil
		}
		r, err := round()
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", len(tm.rounds)+1, err)
		}
		tm.add(r)
		res.Attempted += len(r.took)
		res.Failed += r.failed
	}
}

// traced is what a traced pass hands back to the run that asked for it.
type traced struct {
	tr    *tracer
	tm    *timings // replica A's unit durations in the traced rounds
	stats map[string]*layerStats
	best  map[spanKey]spanCell
	c     *layerReplica
}

// traceEndpoints are the direct calls the coverage rule is applied to;
// a workload has the ones its trace holds.
var traceEndpoints = []string{"service.register", "service.recommend", "service.observe", "streamtune.tune"}

// minCoverage is the smallest coverage ratio over the endpoints.
func minCoverage(covs []coverage) float64 {
	min := 1.0
	for _, c := range covs {
		min = math.Min(min, c.Ratio)
	}
	return min
}

// tracedPass runs round for half the measuring time and reduces its
// spans. The direct call and the layer calls it is compared with are
// timed at different moments, so over three or four rounds on a noisy
// box their minima can differ by 8% either way; when the coverage rule
// would fail, the pass takes as many rounds again, twice at most,
// before it is believed: noise closes with more rounds, a hole in the
// trace does not.
func tracedPass(rc runConfig, res *result, tr *tracer, c *layerReplica, round func() (roundResult, error)) (*traced, error) {
	tm := &timings{}
	for pass := 0; ; pass++ {
		more, err := measure(rc.seconds/2, 2, res, func() (roundResult, error) {
			r, err := round()
			tr.round++
			return r, err
		})
		if err != nil {
			return nil, fmt.Errorf("traced %w", err)
		}
		tm.rounds = append(tm.rounds, more.rounds...)
		stats, best := spanSummary(tr.spans)
		covs, _, _ := checkCoverage(best, traceEndpoints, serviceConfig().BatchWindow)
		if pass == 2 || minCoverage(covs) >= coverageFloor {
			return &traced{tr: tr, tm: tm, stats: stats, best: best, c: c}, nil
		}
	}
}

// finishTrace fills the per-layer metrics both kinds of workload share,
// applies the coverage rule, and writes the trace file.
//
// solo holds the untraced rounds of a single client, the baseline of
// the tracing overhead; timed holds the untraced rounds at the
// workload's own client count, which the process counters bracket.
func finishTrace(res *result, rc runConfig, t *traced, solo, timed *timings, units []unit, tl tally, before, after procCounters) error {
	m := res.PerLayer
	spanMetrics(m, t.stats)
	// A step that fitted nothing is the warm path: the binary search alone.
	var searchMS float64
	searches := 0
	for k, c := range t.best {
		if k.name == "streamtune.step" && c.self == c.dur {
			searchMS += c.dur
			searches++
		}
	}
	if searches > 0 {
		m["mono.search_us"] = 1000 * searchMS / float64(searches)
	}
	if st := t.stats["mono.fit"]; st != nil {
		m["mono.fits_per_task"] = float64(st.Calls) / float64(tl.tasks)
	}
	if n := len(t.c.fitSamples); n > 0 {
		sum := 0
		for _, v := range t.c.fitSamples {
			sum += v
		}
		m["mono.train_samples_mean"] = float64(sum) / float64(n)
	}
	m["streamtune.rounds_per_task"] = float64(tl.observations) / float64(tl.tasks)
	if tl.engineRuns > 0 {
		m["engine.run_us"] = float64(tl.engineRun.Microseconds()) / float64(tl.engineRuns)
	}
	procMetrics(m, before, after, float64(len(timed.rounds)*tl.tasks))
	byTask := func(u int) int { return units[u].task }
	m["bench.task_ms_p90"] = percentile(sortedCopy(sumBy(timed.best(), tl.tasks, byTask)), 0.9)
	for name, v := range diagnostics(units, timed, tl) {
		m[name] = v
	}

	// Tracing overhead: the same units on the same single connection,
	// replica A's minima in the traced rounds against the untraced ones.
	var tracedSum, plainSum float64
	for _, v := range t.tm.best() {
		tracedSum += v
	}
	for _, v := range solo.best() {
		plainSum += v
	}
	m["bench.trace_overhead_pct"] = 100 * (tracedSum - plainSum) / plainSum

	covs, batchWaitMS, registers := checkCoverage(t.best, traceEndpoints, serviceConfig().BatchWindow)
	if registers > 0 {
		m["service.batch_wait_us"] = 1000 * batchWaitMS / float64(registers)
	}
	res.WallS = time.Since(res.started).Seconds()
	min := minCoverage(covs)
	m["bench.layer_coverage_min"] = min
	if err := writeTrace(res, rc, t.tr, t.stats, covs); err != nil {
		return err
	}
	if min < coverageFloor {
		// ROADMAP item 1: a gap between the layers and the call they
		// explain is a bug in the measurement, not a finding.
		return fmt.Errorf("trace sanity: layer calls cover only %.1f%% of an endpoint's direct time (see the coverage lines above)", 100*min)
	}
	return nil
}

// traceHTTP is the traced part of an HTTP workload's run: the baselines'
// reference rows, then the traced rounds on the three replicas.
func traceHTTP(rc runConfig, res *result, h *harness, tasks []taskSpec, rec *recording, a *player) (*traced, error) {
	res.PerLayer = newPerLayer()
	var episodes []episode
	for _, ts := range tasks {
		episodes = append(episodes, episode{workload: ts.workload, multipliers: []float64{float64(ts.multiplier)}})
	}
	if err := baselineRows(res.PerLayer, episodes, engineConfig(rc.opts)); err != nil {
		return nil, err
	}
	twin, err := service.New(h.pt, serviceConfig())
	if err != nil {
		return nil, err
	}
	defer twin.Close()
	dec, err := decodeUnits(rec)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	c, err := newLayerReplica(h.pt, tr)
	if err != nil {
		return nil, err
	}
	return tracedPass(rc, res, tr, c, func() (roundResult, error) {
		return tracedRound(tr, rec, dec, a, twin, c)
	})
}

// runHTTP runs converge, fleet or durable.
func runHTTP(def workloadDef, rc runConfig) (*result, error) {
	res := &result{Workload: def.name, Seed: rc.seed, started: time.Now()}
	workloads, err := experiments.FlinkWorkloads(rc.opts)
	if err != nil {
		return nil, err
	}
	h, setups, err := coldSetups(rc.coldSetups(), rc.opts, workloads)
	if err != nil {
		return nil, err
	}
	defer h.close()
	if err := parkResidents(h.svc, workloads, rc.opts, h.pt.Config.StabilizeWait); err != nil {
		return nil, err
	}
	var d *durable
	if def.durable {
		dir := filepath.Join(rc.scratch, fmt.Sprintf("checkpoints-%d", os.Getpid()))
		defer os.RemoveAll(dir)
		if d, err = newDurable(h, dir); err != nil {
			return nil, err
		}
	}

	tasks := drawTasks(workloads, rc.seed)
	rec, err := recordHTTP(h, tasks, def.clients, d)
	if err != nil {
		return nil, fmt.Errorf("record: %w", err)
	}
	cfg := engineConfig(rc.opts)
	picks := referencePicks(tasks, rc.trace, rc.seed)
	refFailed, err := checkReferences(h.pt, rec, cfg, picks)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	res.Attempted += len(picks)
	res.Failed += refFailed
	if rc.corrupt {
		u := &rec.units[len(rec.units)/2]
		u.want = append([]byte("x"), u.want...)
	}

	players := make([]*player, def.clients)
	for i := range players {
		c := newHTTPClient(h.base)
		defer c.close()
		players[i] = &player{c: c, d: d}
	}

	var t *traced
	seconds := rc.seconds
	if rc.trace {
		if t, err = traceHTTP(rc, res, h, tasks, rec, players[0]); err != nil {
			return nil, err
		}
		seconds = rc.seconds / 2
	}

	// With several clients a traced run also replays the script alone on
	// one connection, so that contention can be told from tracing
	// overhead: both compare against the same uncontended minima.
	var solo *timings
	if rc.trace && def.clients > 1 {
		seconds /= 2
		if solo, err = measure(seconds, minRounds, res, func() (roundResult, error) {
			return replayRound(rec.units, players[:1])
		}); err != nil {
			return nil, fmt.Errorf("solo replay %w", err)
		}
	}
	before := readProc()
	tm, err := measure(seconds, minRounds, res, func() (roundResult, error) {
		return replayRound(rec.units, players)
	})
	if err != nil {
		return nil, fmt.Errorf("replay %w", err)
	}
	after := readProc()

	res.Rounds = len(tm.rounds)
	res.Noise = tm.noiseRatio()
	if rc.trace {
		serviceCounters(res.PerLayer, h.svc)
		// Every http.roundtrip span has exactly one child, the twin's
		// direct call, so its self time is the HTTP layer's share.
		if st := t.stats["http.roundtrip"]; st != nil {
			res.PerLayer["http.overhead_us_per_request"] = 1000 * st.SelfMS / float64(st.Calls)
		}
		if solo != nil {
			// Median, not mean: a burst that hit one unit in all of a
			// mode's few rounds would otherwise decide the figure.
			var waits []float64
			sb, cb := solo.best(), tm.best()
			for ui, u := range rec.units {
				if u.kind == kindRegister || u.kind == kindObserve {
					waits = append(waits, cb[ui]-sb[ui])
				}
			}
			res.PerLayer["service.pool_wait_us"] = 1000 * percentile(sortedCopy(waits), 0.5)
		} else {
			solo = tm
		}
		return res, finishTrace(res, rc, t, solo, tm, rec.units, rec.tally, before, after)
	}
	snap, err := h.svc.Snapshot()
	if err != nil {
		return nil, err
	}
	res.EndToEnd = endToEnd(rec.units, tm, def.clients, rec.tally, setups, before, after)
	res.Diag = diagnostics(rec.units, tm, rec.tally)
	res.EndToEnd["live_heap_mb"] = liveHeapMB()
	res.EndToEnd["state_kb_per_session"] = float64(len(snap)) / 1024 / residentSessions
	res.WallS = time.Since(res.started).Seconds()
	return res, nil
}

// endToEnd derives the end-to-end metrics every workload reports from
// the unit minima, the recording's exact counts and the process
// counters around the timed rounds.
func endToEnd(units []unit, tm *timings, clients int, t tally, setups []float64, before, after procCounters) map[string]float64 {
	perTask := sumBy(tm.best(), t.tasks, func(u int) int { return units[u].task })
	busiest := tm.busiest(clients, func(u int) int { return units[u].client }, func(u int) int { return units[u].task })
	timedTasks := float64(len(tm.rounds) * t.tasks)
	return map[string]float64{
		"setup_s":                       percentile(sortedCopy(setups), 0.5),
		"task_ms":                       mean(perTask),
		"tasks_per_s":                   float64(t.tasks) / (busiest / 1000),
		"alloc_kb_per_task":             float64(after.totalAlloc-before.totalAlloc) / 1024 / timedTasks,
		"reconfigurations_per_task":     float64(t.reconfigurations) / float64(t.tasks),
		"backpressure_windows_per_task": float64(t.backpressure) / float64(t.tasks),
		"overprovision_ratio":           float64(t.finalParallelism) / float64(t.optimal),
	}
}

// diagnostics are the figures every run, traced or not, prints about
// its own measurement: how disturbed it was, and what task_ms reads
// without the clock normalisation.
func diagnostics(units []unit, tm *timings, t tally) map[string]float64 {
	return map[string]float64{
		"bench.noise_ratio": tm.noiseRatio(),
		"bench.rounds":      float64(len(tm.rounds)),
		"bench.task_ms_raw": mean(sumBy(tm.bestRaw(), t.tasks, func(u int) int { return units[u].task })),
		"bench.clock_ratio": tm.meanRatio(),
	}
}

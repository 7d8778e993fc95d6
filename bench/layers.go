package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"github.com/streamtune/streamtune/internal/baselines/conttune"
	"github.com/streamtune/streamtune/internal/baselines/ds2"
	"github.com/streamtune/streamtune/internal/engine"
	"github.com/streamtune/streamtune/internal/experiments"
	"github.com/streamtune/streamtune/internal/service"
)

// layerDef is a per-layer metric's unit and the end-to-end metric it
// should move.
type layerDef struct{ unit, moves string }

// layers names every per-layer metric. BENCHMARK.json lists the same
// names with their units; its per_layer entries take no further key, so
// the "moves" column lives here, in README.md and in every trace file.
var layers = map[string]layerDef{
	"http.overhead_us_per_request":     {"us", "task_ms on converge, fleet, durable; nothing on rate-trace"},
	"dagspec.decode_us":                {"us", "task_ms on converge (under 1%), setup_s"},
	"ged.assign_us":                    {"us", "task_ms on converge (under 1%), setup_s"},
	"service.admission_cache_hit_rate": {"ratio", "task_ms on converge (under 1%), setup_s"},
	"service.encoder_warm_hit_rate":    {"ratio", "task_ms on converge (under 1%), setup_s"},
	"streamtune.warmup_ms":             {"ms", "setup_s"},
	"gnn.infer_us":                     {"us", "task_ms, on rate-trace (paid per rate change) more than converge"},
	"gnn.distill_us":                   {"us", "task_ms, on rate-trace (paid per rate change) more than converge"},
	"mono.fit_ms":                      {"ms", "task_ms, tasks_per_s, alloc_kb_per_task on all four, most on rate-trace"},
	"mono.fits_per_task":               {"count", "task_ms, tasks_per_s, alloc_kb_per_task on all four, most on rate-trace"},
	"mono.train_samples_mean":          {"count", "task_ms, tasks_per_s, alloc_kb_per_task on all four, most on rate-trace"},
	"mono.search_us":                   {"us", "task_ms"},
	"bottleneck.harvest_us":            {"us", "task_ms"},
	"streamtune.step_us":               {"us", "task_ms"},
	"streamtune.observe_ms":            {"ms", "task_ms"},
	"streamtune.rounds_per_task":       {"count", "task_ms, reconfigurations_per_task"},
	"service.register_ms":              {"ms", "task_ms on converge; tasks_per_s on fleet"},
	"service.recommend_us":             {"us", "task_ms on converge; tasks_per_s on fleet"},
	"service.observe_ms":               {"ms", "task_ms on converge; tasks_per_s on fleet"},
	"service.release_us":               {"us", "task_ms on converge; tasks_per_s on fleet"},
	"service.batch_wait_us":            {"us", "task_ms on converge; tasks_per_s on fleet"},
	"service.batch_occupancy_mean":     {"count", "tasks_per_s on fleet"},
	"service.pool_wait_us":             {"us", "tasks_per_s on fleet"},
	"service.snapshot_encode_ms":       {"ms", "task_ms, state_kb_per_session, live_heap_mb on durable only"},
	"service.checkpoint_ms":            {"ms", "task_ms, state_kb_per_session, live_heap_mb on durable only"},
	"service.checkpoint_write_ms":      {"ms", "task_ms, state_kb_per_session, live_heap_mb on durable only"},
	"service.checkpoint_mb":            {"MiB", "task_ms, state_kb_per_session, live_heap_mb on durable only"},
	"service.restore_ms":               {"ms", "task_ms, state_kb_per_session, live_heap_mb on durable only"},

	"baselines.ds2.reconfigurations_per_task":          {"count", "reference row for reconfigurations_per_task"},
	"baselines.ds2.backpressure_windows_per_task":      {"count", "reference row for backpressure_windows_per_task"},
	"baselines.ds2.overprovision_ratio":                {"ratio", "reference row for overprovision_ratio"},
	"baselines.ds2.decide_us":                          {"us", "nothing: the baseline's own decision time"},
	"baselines.conttune.reconfigurations_per_task":     {"count", "reference row for reconfigurations_per_task"},
	"baselines.conttune.backpressure_windows_per_task": {"count", "reference row for backpressure_windows_per_task"},
	"baselines.conttune.overprovision_ratio":           {"ratio", "reference row for overprovision_ratio"},
	"baselines.conttune.decide_us":                     {"us", "nothing: the baseline's own decision time"},

	"engine.run_us":            {"us", "nothing: generator cost, never on a timed path"},
	"proc.cpu_ms_per_task":     {"ms", "diagnostic"},
	"proc.rss_peak_mb":         {"MiB", "diagnostic"},
	"proc.gc_cycles_per_task":  {"count", "diagnostic"},
	"proc.mallocs_per_task":    {"count", "diagnostic"},
	"bench.task_ms_p90":        {"ms", "diagnostic"},
	"bench.task_ms_raw":        {"ms", "diagnostic"},
	"bench.clock_ratio":        {"ratio", "diagnostic"},
	"bench.noise_ratio":        {"ratio", "diagnostic"},
	"bench.rounds":             {"count", "diagnostic"},
	"bench.trace_overhead_pct": {"%", "diagnostic"},
	"bench.layer_coverage_min": {"ratio", "diagnostic"},
}

// newPerLayer returns every per-layer metric at zero, so that a
// workload without a layer (rate-trace has no service, converge takes no
// checkpoints) still reports the full set.
func newPerLayer() map[string]float64 {
	m := make(map[string]float64, len(layers))
	for name := range layers {
		m[name] = 0
	}
	return m
}

// spanMetrics fills the metrics that are a span name's mean minimum
// duration.
func spanMetrics(m map[string]float64, stats map[string]*layerStats) {
	mean := func(name string) float64 {
		if st := stats[name]; st != nil && st.Calls > 0 {
			return st.TotalMS / float64(st.Calls)
		}
		return 0
	}
	m["dagspec.decode_us"] = 1000 * mean("dagspec.decode")
	m["ged.assign_us"] = 1000 * mean("ged.assign")
	m["streamtune.warmup_ms"] = mean("streamtune.warmup")
	m["gnn.infer_us"] = 1000 * mean("gnn.infer")
	m["gnn.distill_us"] = 1000 * mean("gnn.distill")
	m["mono.fit_ms"] = mean("mono.fit")
	m["bottleneck.harvest_us"] = 1000 * mean("bottleneck.harvest")
	m["streamtune.step_us"] = 1000 * mean("streamtune.step")
	m["streamtune.observe_ms"] = mean("streamtune.observe")
	m["service.register_ms"] = mean("service.register")
	m["service.recommend_us"] = 1000 * mean("service.recommend")
	m["service.observe_ms"] = mean("service.observe")
	m["service.release_us"] = 1000 * mean("service.release")
	m["service.snapshot_encode_ms"] = mean("service.snapshot_encode")
	m["service.checkpoint_ms"] = mean("service.checkpoint")
	m["service.checkpoint_write_ms"] = mean("service.checkpoint") - mean("service.snapshot_encode")
	m["service.restore_ms"] = mean("service.restore")
}

// coverage is the trace sanity rule (ROADMAP item 1): for each
// endpoint, the layer calls made on its behalf must add up to at least
// 90% of the direct call, else the gap is a bug in the measurement.
type coverage struct {
	Endpoint string  `json:"endpoint"`
	DirectMS float64 `json:"direct_ms_per_round"`
	LayersMS float64 `json:"layers_ms_per_round"`
	Ratio    float64 `json:"ratio"`
}

// coverageFloor is the rule's 90%.
const coverageFloor = 0.9

// minCoverageShare exempts an endpoint from the rule when its direct
// calls are under this share of the round: recommend on a warm session
// is a few microseconds of locking and bookkeeping around a binary
// search, and that bookkeeping is the service layer's own self time,
// not a hole in the trace.
const minCoverageShare = 0.01

// checkCoverage compares, per endpoint, the endpoint's spans with their
// child spans (a span's minimum duration less its minimum self time). A
// lone tenant's registration waits out the batch window inside the
// service; that wait is a layer of its own (service.batch_wait), bounded
// by the window. It also returns the total batch wait and how many
// registrations it was taken over.
func checkCoverage(best map[spanKey]spanCell, endpoints []string, batchWindow time.Duration) (covs []coverage, batchWaitMS float64, registers int) {
	sums := map[string]*coverage{}
	for _, e := range endpoints {
		sums[e] = &coverage{Endpoint: e, Ratio: 1}
	}
	var total float64
	for k, c := range best {
		if k.name == "http.roundtrip" || k.name == "streamtune.tune" {
			total += c.dur
		}
		sum, ok := sums[k.name]
		if !ok {
			continue
		}
		layers := c.dur - c.self
		if k.name == "service.register" {
			wait := math.Max(0, math.Min(c.self, ms(batchWindow)+1))
			batchWaitMS += wait
			registers++
			layers += wait
		}
		sum.DirectMS += c.dur
		sum.LayersMS += layers
	}
	for _, e := range endpoints {
		if sum := sums[e]; sum.DirectMS > 0 && sum.DirectMS >= minCoverageShare*total {
			sum.Ratio = sum.LayersMS / sum.DirectMS
			covs = append(covs, *sum)
		}
	}
	return covs, batchWaitMS, registers
}

// episode is one engine's life in a script: a workload deployed at
// parallelism one and then taken through a sequence of source rates, one
// tuning task per rate. An HTTP task is an episode of one rate, a
// rate-trace cell an episode of its whole trace.
type episode struct {
	workload    experiments.Workload
	multipliers []float64
}

// baselineRun is one baseline's exact counts over a script.
type baselineRun struct {
	tally  tally
	decide time.Duration
}

func (b *baselineRun) add(eng *engine.Engine, final map[string]int, reconfigurations, backpressure int, decide time.Duration) error {
	b.tally.tasks++
	b.tally.reconfigurations += reconfigurations
	b.tally.backpressure += backpressure
	b.decide += decide
	return b.tally.addFinal(final, eng.Graph(), eng.Config())
}

// runBaselines takes DS2 and ContTune through the same episodes as the
// script: the reference rows for the three fidelity metrics. DS2 is
// stateless; a ContTune tuner lives as long as its engine.
func runBaselines(episodes []episode, cfg engine.Config) (ds, ct baselineRun, err error) {
	fresh := func(ep episode) (*engine.Engine, error) {
		eng, err := engine.New(ep.workload.Graph.Clone(), cfg)
		if err != nil {
			return nil, err
		}
		return eng, deployOnes(eng)
	}
	for _, ep := range episodes {
		dsEng, err := fresh(ep)
		if err != nil {
			return ds, ct, err
		}
		ctEng, err := fresh(ep)
		if err != nil {
			return ds, ct, err
		}
		tuner := conttune.NewTuner(conttune.DefaultOptions())
		for _, mult := range ep.multipliers {
			ep.workload.SetRate(dsEng.Graph(), mult)
			dres, err := ds2.Tune(dsEng, ds2.DefaultOptions())
			if err != nil {
				return ds, ct, err
			}
			if err := ds.add(dsEng, dres.Parallelism, dres.Reconfigurations, dres.BackpressureEvents, dres.RecommendTime); err != nil {
				return ds, ct, err
			}
			ep.workload.SetRate(ctEng.Graph(), mult)
			cres, err := tuner.Tune(ctEng)
			if err != nil {
				return ds, ct, err
			}
			if err := ct.add(ctEng, cres.Parallelism, cres.Reconfigurations, cres.BackpressureEvents, cres.RecommendTime); err != nil {
				return ds, ct, err
			}
		}
	}
	return ds, ct, nil
}

// baselineRows runs both baselines over the episodes and fills their
// per-layer rows.
func baselineRows(m map[string]float64, episodes []episode, cfg engine.Config) error {
	ds, ct, err := runBaselines(episodes, cfg)
	if err != nil {
		return fmt.Errorf("baselines: %w", err)
	}
	baselineMetrics(m, "baselines.ds2", ds)
	baselineMetrics(m, "baselines.conttune", ct)
	return nil
}

func baselineMetrics(m map[string]float64, prefix string, b baselineRun) {
	t, n := b.tally, float64(b.tally.tasks)
	m[prefix+".reconfigurations_per_task"] = float64(t.reconfigurations) / n
	m[prefix+".backpressure_windows_per_task"] = float64(t.backpressure) / n
	m[prefix+".overprovision_ratio"] = float64(t.finalParallelism) / float64(t.optimal)
	m[prefix+".decide_us"] = float64(b.decide.Microseconds()) / n
}

// procMetrics fills the process-cost diagnostics from the counters
// around the untraced timed rounds.
func procMetrics(m map[string]float64, before, after procCounters, timedTasks float64) {
	m["proc.cpu_ms_per_task"] = ms(after.cpu-before.cpu) / timedTasks
	m["proc.gc_cycles_per_task"] = float64(after.numGC-before.numGC) / timedTasks
	m["proc.mallocs_per_task"] = float64(after.mallocs-before.mallocs) / timedTasks
	m["proc.rss_peak_mb"] = rssPeakMB()
}

// serviceCounters fills the metrics read off the serving instance's own
// counters.
func serviceCounters(m map[string]float64, svc *service.Service) {
	st := svc.Stats()
	if tot := st.Admission.CacheHits + st.Admission.CacheMisses; tot > 0 {
		m["service.admission_cache_hit_rate"] = float64(st.Admission.CacheHits) / float64(tot)
	}
	if st.Sessions.Registered > 0 {
		m["service.encoder_warm_hit_rate"] = float64(st.Admission.EncoderWarmHits) / float64(st.Sessions.Registered)
	}
	var flushes, sessions uint64
	for size, n := range svc.BatchOccupancy() {
		flushes += n
		sessions += uint64(size) * n
	}
	if flushes > 0 {
		m["service.batch_occupancy_mean"] = float64(sessions) / float64(flushes)
	}
	m["service.checkpoint_mb"] = float64(st.Checkpoint.LastBytes) / (1 << 20)
}

// envStamp identifies the machine and build a result was taken on.
type envStamp struct {
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	Rounds     int     `json:"rounds"`
	WallS      float64 `json:"wall_s"`
	NoiseRatio float64 `json:"noise_ratio"`
	Time       string  `json:"time"`
}

func newEnvStamp(res *result) envStamp {
	return envStamp{
		CPU: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: gitCommit(),
		Seed: res.Seed, Rounds: res.Rounds, WallS: res.WallS, NoiseRatio: res.Noise,
		Time: time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

// gitCommit is the revision the binary was built from, when the build
// ran inside a git checkout.
func gitCommit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// traceFile is bench/out/trace-<workload>.json.
type traceFile struct {
	Env       envStamp           `json:"env"`
	Workload  string             `json:"workload"`
	PerLayer  map[string]float64 `json:"per_layer"`
	Moves     map[string]string  `json:"moves"` // per-layer metric -> the end-to-end metric it should move
	SelfTimes []layerStats       `json:"self_time_table"`
	Coverage  []coverage         `json:"coverage"`
	Spans     []span             `json:"spans"`
}

// writeTrace prints the self-time table and the coverage check and
// writes the trace file.
func writeTrace(res *result, rc runConfig, tr *tracer, stats map[string]*layerStats, covs []coverage) error {
	moves := make(map[string]string, len(layers))
	for name, def := range layers {
		moves[name] = def.moves
	}
	file := traceFile{Env: newEnvStamp(res), Workload: res.Workload, PerLayer: res.PerLayer, Moves: moves,
		SelfTimes: selfTimeTable(stats), Coverage: covs, Spans: tr.spans}
	fmt.Printf("-- %s: self time per round (span minus child spans, minimum over %d traced rounds)\n", res.Workload, tr.round)
	fmt.Printf("%-26s %8s %12s %12s %7s\n", "layer", "calls", "total_ms", "self_ms", "share")
	for _, r := range file.SelfTimes {
		fmt.Printf("%-26s %8d %12.3f %12.3f %6.1f%%\n", r.Name, r.Calls, r.TotalMS, r.SelfMS, r.SharePct)
	}
	for _, c := range covs {
		fmt.Printf("-- coverage %-18s layers %.3f ms of direct %.3f ms = %.1f%%\n", c.Endpoint, c.LayersMS, c.DirectMS, 100*c.Ratio)
	}
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(file)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(rc.outDir, "trace-"+res.Workload+".json"), data, 0o644)
}

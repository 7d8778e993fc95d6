// Command experiments regenerates the tables and figures of the
// StreamTune paper's evaluation (§V) on the simulated engines.
//
// Usage:
//
//	experiments -exp fig6            # one experiment
//	experiments -exp all             # everything
//	experiments -exp fig7a -quick    # CI-scale configuration
//	experiments -exp all -workers 8  # bound the worker pool
//
// Experiment IDs: table2, fig4, fig5, fig6, fig7a, fig7b, table3, fig8a,
// fig8bcd, fig9a, fig9b, fig10, fig11a, fig11b, ablation-noise,
// ablation-global, ged-bench, admission-bench, nn-bench, chaos-bench,
// all ("all" excludes the explicit benchmarks; run them explicitly).
// Each explicit benchmark returns an error on any differential
// mismatch, so a zero exit status is the pass signal. Serving-path
// performance is measured by bash bench/run.sh, not here.
//
// -workers bounds the fan-out of each parallel stage (concurrent
// drivers, experiment cells, corpus samples, GED pairs, per-cluster
// training). Stages nest, so the total number of live goroutines can
// exceed N — the Go scheduler still caps effective CPU parallelism at
// GOMAXPROCS. Every parallel path is deterministic, so the rendered
// tables are identical for any worker count. 0 (the default) uses
// every CPU; 1 reproduces the fully sequential run.
//
// Unless -bench-out is empty, a BENCH_experiments.json wall-clock
// summary (total and per-driver seconds, worker count) is written so
// speedups can be tracked across runs. The ged-bench experiment
// additionally writes the "ged" section of BENCH_ged.json: per-scale
// seed-vs-pipeline timings, filter/verify/cache pair counts and A*
// states expanded. The admission-bench experiment writes the
// "admission" section of the same file: corpus growth through the
// incremental cluster maintainer (pivot index + learned GED band over a
// bounded cache) timed against a global K-means re-run, with sampled
// assignments differentially verified against the canonical center
// scan. The two sections are read-modify-written so either bench can be
// refreshed alone.
// The nn-bench experiment writes BENCH_nn.json: seed-vs-compiled-plan
// wall clock for GNN pre-training and ZeroTune cost-model training,
// with bit-identical-result cross-checks.
// The chaos-bench experiment writes BENCH_chaos.json: the full
// crash-recovery soak — the service is killed at -chaos-kills random
// points mid-tuning, checkpoint writes fail and checkpoint files are
// corrupted on a seeded schedule, and every restart must resume from
// the newest valid checkpoint with recommendations bit-identical to an
// uninterrupted run.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"sync"
	"time"

	"github.com/streamtune/streamtune/internal/experiments"
	"github.com/streamtune/streamtune/internal/parallel"
	"github.com/streamtune/streamtune/internal/service"
)

// allDrivers is the fixed rendering order of -exp all.
var allDrivers = []string{
	"table2", "fig4", "fig5", "fig6", "fig7a", "table3", "fig9a",
	"fig7b", "fig8a", "fig8bcd", "fig9b", "fig10", "fig11a", "fig11b",
	"ablation-noise", "ablation-global",
}

// benchSummary is the wall-clock record written to -bench-out.
type benchSummary struct {
	Experiment    string             `json:"experiment"`
	Quick         bool               `json:"quick"`
	Workers       int                `json:"workers"`
	NumCPU        int                `json:"num_cpu"`
	TotalSeconds  float64            `json:"total_seconds"`
	DriverSeconds map[string]float64 `json:"driver_seconds"`
}

func main() {
	exp := flag.String("exp", "all", "experiment id (see package doc)")
	quick := flag.Bool("quick", false, "use the scaled-down configuration")
	workers := flag.Int("workers", 0, "worker goroutines (0 = all CPUs, 1 = sequential)")
	benchOut := flag.String("bench-out", "BENCH_experiments.json", "wall-clock summary path (empty to disable)")
	gedBenchOut := flag.String("ged-bench-out", "BENCH_ged.json", "ged-bench report path (empty to disable)")
	nnBenchOut := flag.String("nn-bench-out", "BENCH_nn.json", "nn-bench report path (empty to disable)")
	chaosBenchOut := flag.String("chaos-bench-out", "BENCH_chaos.json", "chaos-bench report path (empty to disable)")
	chaosJobs := flag.Int("chaos-jobs", 4, "chaos-bench tenant count")
	chaosKills := flag.Int("chaos-kills", 24, "chaos-bench injected service kills")
	chaosSeed := flag.Int64("chaos-seed", 1, "chaos-bench fault-schedule seed")
	flag.Parse()

	opts := experiments.Full()
	if *quick {
		opts = experiments.Quick()
	}
	opts.Parallelism = *workers

	summary := &benchSummary{
		Experiment:    *exp,
		Quick:         *quick,
		Workers:       parallel.Workers(*workers),
		NumCPU:        runtime.NumCPU(),
		DriverSeconds: make(map[string]float64),
	}
	bench := benchTargets{
		gedOut:     *gedBenchOut,
		nnOut:      *nnBenchOut,
		chaosOut:   *chaosBenchOut,
		chaosJobs:  *chaosJobs,
		chaosKills: *chaosKills,
		chaosSeed:  *chaosSeed,
	}

	start := time.Now()
	if err := run(*exp, opts, summary, bench); err != nil {
		log.Fatalf("experiment %s: %v", *exp, err)
	}
	summary.TotalSeconds = time.Since(start).Seconds()

	if err := writeReport(*benchOut, summary); err != nil {
		log.Fatalf("bench summary: %v", err)
	}
}

// benchTargets carries the report destinations and scales of the
// explicit benchmark experiments.
type benchTargets struct {
	gedOut, nnOut, chaosOut string
	chaosJobs, chaosKills   int
	chaosSeed               int64
}

// updateGEDReport read-modify-writes the combined BENCH_ged.json so
// ged-bench and admission-bench each refresh their own section without
// clobbering the other's. An empty path disables the write.
func updateGEDReport(path string, mutate func(*experiments.GEDReport)) error {
	if path == "" {
		return nil
	}
	var report experiments.GEDReport
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &report); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case os.IsNotExist(err):
	default:
		return err
	}
	mutate(&report)
	return writeReport(path, &report)
}

// writeReport marshals a benchmark report and replaces path atomically,
// so an interrupted run leaves the previous committed report intact; an
// empty path disables the write.
func writeReport(path string, report any) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return service.WriteFileAtomic(path, append(data, '\n'))
}

func run(exp string, opts experiments.Options, summary *benchSummary, bench benchTargets) error {
	out := os.Stdout
	needSweep := map[string]bool{"fig6": true, "fig7a": true, "table3": true, "fig9a": true, "all": true}

	var sweep []*experiments.CycleStats
	if needSweep[exp] {
		sweepStart := time.Now()
		var err error
		sweep, err = experiments.Sweep(opts)
		if err != nil {
			return err
		}
		summary.DriverSeconds["sweep"] = time.Since(sweepStart).Seconds()
	}

	once := func(id string, out io.Writer) error {
		switch id {
		case "table2":
			t, err := experiments.Table2()
			if err != nil {
				return err
			}
			t.Render(out)
		case "fig4":
			points, ft, wt, err := experiments.Fig4(opts)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, "== Fig 4: Parallelism vs Processing Ability ==")
			fmt.Fprintln(out, "p   filter PA (rec/s)   window PA (rec/s)")
			for _, p := range points {
				fmt.Fprintf(out, "%-3d %-18.0f %-18.0f\n", p.Parallelism, p.FilterPA, p.WindowPA)
			}
			fmt.Fprintf(out, "bottleneck thresholds: filter=%d window=%d (paper: 14 and 10)\n", ft, wt)
		case "fig5":
			t, err := experiments.Fig5(opts)
			if err != nil {
				return err
			}
			t.Render(out)
		case "fig6":
			experiments.Fig6(sweep).Render(out)
		case "fig7a":
			experiments.Fig7a(sweep).Render(out)
		case "table3":
			experiments.Table3(sweep).Render(out)
		case "fig9a":
			experiments.Fig9a(sweep).Render(out)
		case "fig7b":
			t, err := experiments.Fig7b(opts)
			if err != nil {
				return err
			}
			t.Render(out)
		case "fig8a", "fig8bcd":
			results, err := experiments.Fig8(opts)
			if err != nil {
				return err
			}
			if id == "fig8a" {
				experiments.Fig8aTable(results).Render(out)
			} else {
				experiments.Fig8LatencyTable(results).Render(out)
			}
		case "fig9b":
			sizes := []int{200, 500, 1000, 2000}
			if opts.CorpusSamples < experiments.Full().CorpusSamples {
				sizes = []int{100, 200, 400, 800}
			}
			t, err := experiments.Fig9b(opts, sizes)
			if err != nil {
				return err
			}
			t.Render(out)
		case "fig10":
			t, err := experiments.Fig10(opts)
			if err != nil {
				return err
			}
			t.Render(out)
		case "fig11a":
			t, err := experiments.Fig11a(opts)
			if err != nil {
				return err
			}
			t.Render(out)
		case "fig11b":
			// Direct GED is quadratic in dataset size with no pruning —
			// that is the point of the figure — so quick mode caps the
			// sweep where the baseline stays tractable.
			sizes := []int{100, 200, 300, 400}
			if opts.CorpusSamples < experiments.Full().CorpusSamples {
				sizes = []int{20, 40, 60}
			}
			t, err := experiments.Fig11b(opts, sizes)
			if err != nil {
				return err
			}
			t.Render(out)
		case "ablation-noise":
			rows, err := experiments.AblationNoise(opts, []float64{0.01, 0.05, 0.1, 0.2})
			if err != nil {
				return err
			}
			fmt.Fprintln(out, "== Ablation: useful-time noise sweep (Nexmark Q5) ==")
			fmt.Fprintln(out, "noise  DS2 reconfigs  DS2 bp  StreamTune reconfigs  StreamTune bp")
			for _, r := range rows {
				fmt.Fprintf(out, "%-6.2f %-14.2f %-7d %-21.2f %d\n",
					r.Noise, r.DS2Reconfigs, r.DS2Backpressure, r.StreamTuneRecfg, r.StreamTuneBackpres)
			}
		case "ablation-global":
			t, err := experiments.AblationGlobal(opts)
			if err != nil {
				return err
			}
			t.Render(out)
		case "nn-bench":
			report, err := experiments.NNBench(opts)
			if err != nil {
				return err
			}
			experiments.NNBenchTable(report).Render(out)
			if err := writeReport(bench.nnOut, report); err != nil {
				return err
			}
		case "chaos-bench":
			report, err := experiments.ChaosBench(opts, bench.chaosJobs, bench.chaosKills, bench.chaosSeed)
			if err != nil {
				return err
			}
			experiments.ChaosBenchTable(report).Render(out)
			if err := writeReport(bench.chaosOut, report); err != nil {
				return err
			}
		case "ged-bench":
			sizes := []int{80, 160, 320}
			if opts.CorpusSamples < experiments.Full().CorpusSamples {
				sizes = []int{24, 48}
			}
			rows, err := experiments.GEDBench(opts, sizes)
			if err != nil {
				return err
			}
			experiments.GEDBenchTable(rows).Render(out)
			if err := updateGEDReport(bench.gedOut, func(r *experiments.GEDReport) {
				r.GED = rows
			}); err != nil {
				return err
			}
		case "admission-bench":
			sizes := []int{1000, 10000}
			if opts.CorpusSamples < experiments.Full().CorpusSamples {
				sizes = []int{160, 320}
			}
			report, err := experiments.AdmissionBench(opts, sizes)
			if err != nil {
				return err
			}
			experiments.AdmissionBenchTable(report).Render(out)
			if err := updateGEDReport(bench.gedOut, func(r *experiments.GEDReport) {
				r.Admission = report
			}); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown experiment %q", id)
		}
		return nil
	}

	timed := func(id string, out io.Writer) error {
		driverStart := time.Now()
		err := once(id, out)
		summary.DriverSeconds[id] = time.Since(driverStart).Seconds()
		return err
	}

	if exp != "all" {
		return timed(exp, out)
	}

	// Run every driver concurrently, each rendering into its own buffer.
	// Buffers are flushed incrementally in the fixed allDrivers order as
	// their drivers complete, so stdout streams like a sequential run
	// and is byte-identical to one; if a driver fails, everything before
	// it has already been printed (a failed driver's partial buffer is
	// never flushed). The memoizing artifact cache deduplicates the
	// shared corpora and pre-training work across drivers, and each
	// driver additionally fans its own cells out.
	bufs := make([]bytes.Buffer, len(allDrivers))
	times := make([]float64, len(allDrivers))
	var mu sync.Mutex
	done := make([]bool, len(allDrivers))
	flushed := 0
	var flushErr error
	flushPrefix := func() { // caller holds mu
		for flushed < len(allDrivers) && done[flushed] {
			if _, err := bufs[flushed].WriteTo(out); err != nil && flushErr == nil {
				flushErr = err
			}
			fmt.Fprintln(out)
			flushed++
		}
	}
	err := parallel.ForEach(len(allDrivers), opts.Parallelism, func(i int) error {
		driverStart := time.Now()
		err := once(allDrivers[i], &bufs[i])
		times[i] = time.Since(driverStart).Seconds()
		mu.Lock()
		if err == nil {
			done[i] = true
		}
		flushPrefix()
		mu.Unlock()
		return err
	})
	for i, id := range allDrivers {
		summary.DriverSeconds[id] = times[i]
	}
	if err != nil {
		return err
	}
	if flushErr != nil {
		return flushErr
	}
	return nil
}

// Command bench is the repository's one repeatable benchmark: four
// replayed closed-loop workloads, best-of-rounds timing, exact cost
// counts, and an outside-in layer trace. README.md in this directory
// describes the workloads, the metrics and the estimator.
//
//	bash bench/run.sh --workload converge --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh --workload all                # one full pass, one process
//	bash bench/run.sh --workload durable --trace 1  # per-layer numbers + bench/out/trace-durable.json
//	bash bench/run.sh --repeat 10                   # spread table -> bench/out/repeat.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	var (
		workload = flag.String("workload", "all", "converge, fleet, durable, rate-trace, or all")
		seed     = flag.Int64("seed", 1, "draws the script: task order, trace-cell order, reference picks")
		seconds  = flag.Float64("seconds", 12, "how long the replay rounds measure")
		trace    = flag.Int("trace", 0, "1: the traced pass (per-layer metrics, bench/out/trace-<workload>.json)")
		corrupt  = flag.Bool("corrupt", false, "damage one recorded response: the run must exit non-zero")
		repeat   = flag.Int("repeat", 0, "N runs of every workload, each on another seed in its own process; spread table -> <out>/repeat.json")
		outDir   = flag.String("out", "bench/out", "directory for trace and repeat files")
		scratch  = flag.String("scratch", ".bench_build/scratch", "directory for checkpoint files")
	)
	flag.Parse()
	rc := runConfig{
		seed: *seed, seconds: *seconds, trace: *trace != 0,
		corrupt: *corrupt, outDir: *outDir, scratch: *scratch, opts: fullScale(),
	}
	defs := workloadDefs
	if *workload != "all" {
		def, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		defs = []workloadDef{def}
	}
	if *repeat > 0 {
		os.Exit(runRepeat(*repeat, defs, rc))
	}
	os.Exit(runAll(defs, rc))
}

// runAll runs the workloads in one process, prints every metric by name
// with its unit, and ends with the one-line JSON summary. The exit code
// is non-zero when any operation failed or the harness broke.
func runAll(defs []workloadDef, rc runConfig) int {
	summary := lastLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, def := range defs {
		run := runRateTrace
		if def.http {
			run = runHTTP
		}
		res, err := run(def, rc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", def.name, err)
			return 1
		}
		values := res.EndToEnd
		if rc.trace {
			values = res.PerLayer
		}
		fmt.Printf("== %s  seed=%d  rounds=%d  noise_ratio=%.3f  wall=%.1fs  ops_total=%d  ops_failed=%d\n",
			res.Workload, res.Seed, res.Rounds, res.Noise, res.WallS, res.Attempted, res.Failed)
		for _, n := range sortedNames(values) {
			fmt.Printf("%-34s %14.4f %s\n", n, values[n], unitOf(n))
			key := n
			if len(defs) > 1 {
				key = def.name + "/" + n
			}
			summary.Metrics[key] = metricValue{Value: values[n], Unit: unitOf(n)}
		}
		for _, n := range sortedNames(res.Diag) {
			fmt.Printf("%-34s %14.4f %s\n", n, res.Diag[n], unitOf(n))
		}
		summary.Attempted += res.Attempted
		summary.Failed += res.Failed
	}
	summary.Correct = summary.Failed == 0
	line, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !summary.Correct {
		return 1
	}
	return 0
}

func sortedNames(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// lastLine is the machine-readable result: the last line of standard
// output.
type lastLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

var metricUnits = map[string]string{
	"setup_s":                       "s",
	"task_ms":                       "ms",
	"tasks_per_s":                   "1/s",
	"alloc_kb_per_task":             "KiB",
	"live_heap_mb":                  "MiB",
	"state_kb_per_session":          "KiB",
	"reconfigurations_per_task":     "count",
	"backpressure_windows_per_task": "count",
	"overprovision_ratio":           "ratio",
}

func unitOf(name string) string {
	if u, ok := metricUnits[name]; ok {
		return u
	}
	return layers[name].unit
}

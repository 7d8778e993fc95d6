package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// -repeat N is the tool that sets the bounds in BENCHMARK.json and
// checks them the way the gate does: N runs of every workload, each on
// another seed and in a process of its own, then per metric the
// quartile spread as a share of the median against the metric's bound.
// Each invocation appends one set to bench/out/repeat.json and compares
// its medians with the previous set's.

// benchmarkSpec is the part of BENCHMARK.json the repeat tool reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// repeatSet is one -repeat invocation.
type repeatSet struct {
	Env      envStamp                        `json:"env"`
	Seeds    []int64                         `json:"seeds"`
	Seconds  float64                         `json:"seconds"`
	Runs     []string                        `json:"runs"`   // each run's header line: seed, rounds, noise_ratio, wall, ops
	Values   map[string]map[string][]float64 `json:"values"` // workload -> metric -> per run
	Summary  []repeatRow                     `json:"summary"`
	Verdicts []string                        `json:"verdicts,omitempty"`
}

// repeatRow is one (workload, metric) line of the table.
type repeatRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Min      float64 `json:"min"`
	Median   float64 `json:"median"`
	Max      float64 `json:"max"`
	// Spread is (Q3-Q1)/median with the quartiles of Python's
	// statistics.quantiles(values, n=4).
	Spread float64 `json:"spread"`
	Bound  float64 `json:"bound"`
	// VsPrevious is how much worse this set's median is than the
	// previous set's, as a share of the previous median (negative:
	// better); absent for a first set.
	VsPrevious *float64 `json:"vs_previous,omitempty"`
}

type repeatFile struct {
	Sets []repeatSet `json:"sets"`
}

// quartiles returns Q1 and Q3 as Python's statistics.quantiles(v, n=4)
// computes them (the default "exclusive" method).
func quartiles(values []float64) (q1, q3 float64) {
	d := sortedCopy(values)
	n := len(d)
	if n < 2 {
		return d[0], d[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func median(values []float64) float64 {
	d := sortedCopy(values)
	n := len(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// runRepeat performs the runs and returns the process exit code.
func runRepeat(n int, defs []workloadDef, rc runConfig) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	var spec benchmarkSpec
	if data, err := os.ReadFile("BENCHMARK.json"); err == nil {
		if err := json.Unmarshal(data, &spec); err != nil {
			fmt.Fprintf(os.Stderr, "bench: BENCHMARK.json: %v\n", err)
			return 1
		}
	} else {
		fmt.Fprintf(os.Stderr, "bench: no BENCHMARK.json in the working directory; spreads are reported without bounds\n")
	}
	bounds := map[string]float64{}
	higher := map[string]bool{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
		higher[m.Name] = m.Better == "higher"
	}

	start := time.Now()
	set := repeatSet{Seconds: rc.seconds, Values: map[string]map[string][]float64{}}
	for i := 0; i < n; i++ {
		set.Seeds = append(set.Seeds, rc.seed+int64(i))
	}
	for _, seed := range set.Seeds {
		for _, def := range defs {
			cmd := exec.Command(self,
				"--workload", def.name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.FormatFloat(rc.seconds, 'g', -1, 64),
				"--trace", "0",
				"--out", rc.outDir, "--scratch", rc.scratch)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output() // waits for the child to end
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", def.name, seed, err)
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var last lastLine
			if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: last line: %v\n", def.name, seed, err)
				return 1
			}
			if set.Values[def.name] == nil {
				set.Values[def.name] = map[string][]float64{}
			}
			for name, v := range last.Metrics {
				set.Values[def.name][name] = append(set.Values[def.name][name], v.Value)
			}
			// The diagnostics are printed as "name value unit" lines and
			// are not in the JSON line; they ride along without a bound.
			for _, line := range lines[1 : len(lines)-1] {
				f := strings.Fields(string(line))
				if len(f) != 3 || !strings.HasPrefix(f[0], "bench.") {
					continue
				}
				if v, err := strconv.ParseFloat(f[1], 64); err == nil {
					set.Values[def.name][f[0]] = append(set.Values[def.name][f[0]], v)
				}
			}
			set.Runs = append(set.Runs, string(lines[0]))
			fmt.Printf("%s\n", lines[0])
		}
	}

	path := filepath.Join(rc.outDir, "repeat.json")
	var file repeatFile
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &file); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", path, err)
			return 1
		}
	}
	var prev *repeatSet
	if len(file.Sets) > 0 {
		prev = &file.Sets[len(file.Sets)-1]
	}

	ok := true
	fmt.Printf("\n%-11s %-30s %12s %12s %12s %8s %7s %9s\n", "workload", "metric", "min", "median", "max", "spread", "bound", "vs_prev")
	for _, def := range defs {
		names := make([]string, 0, len(set.Values[def.name]))
		for name := range set.Values[def.name] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			v := set.Values[def.name][name]
			s := sortedCopy(v)
			q1, q3 := quartiles(v)
			row := repeatRow{Workload: def.name, Metric: name, Min: s[0], Median: median(v), Max: s[len(s)-1], Bound: bounds[name]}
			if row.Median != 0 {
				row.Spread = (q3 - q1) / row.Median
			}
			vs := "-"
			if prev != nil && len(prev.Values[def.name][name]) > 0 {
				base := median(prev.Values[def.name][name])
				worse := (row.Median - base) / base
				if higher[name] {
					worse = -worse
				}
				row.VsPrevious = &worse
				vs = fmt.Sprintf("%+.2f%%", 100*worse)
				if row.Bound > 0 && worse > row.Bound {
					ok = false
					set.Verdicts = append(set.Verdicts, fmt.Sprintf("%s/%s: median worse than the previous set's by %.2f%%, bound %.0f%%", def.name, name, 100*worse, 100*row.Bound))
				}
			}
			if row.Bound > 0 && row.Spread > row.Bound {
				verdict := fmt.Sprintf("%s/%s: spread %.2f%% exceeds bound %.0f%%", def.name, name, 100*row.Spread, 100*row.Bound)
				if name == "setup_s" {
					// The gate holds setup_s to the median rule only.
					verdict += " (reported, not enforced: the gate exempts setup_s from the spread rule)"
				} else {
					ok = false
				}
				set.Verdicts = append(set.Verdicts, verdict)
			}
			fmt.Printf("%-11s %-30s %12.4f %12.4f %12.4f %7.2f%% %6.0f%% %9s\n",
				row.Workload, row.Metric, row.Min, row.Median, row.Max, 100*row.Spread, 100*row.Bound, vs)
			set.Summary = append(set.Summary, row)
		}
	}
	for _, v := range set.Verdicts {
		fmt.Println("--", v)
	}
	if ok {
		fmt.Println("every enforced spread and every set-to-set median difference is within its bound")
	} else {
		fmt.Println("FAIL")
	}

	res := &result{Seed: rc.seed, WallS: time.Since(start).Seconds()}
	set.Env = newEnvStamp(res)
	file.Sets = append(file.Sets, set)
	data, err := json.MarshalIndent(file, "", " ")
	if err == nil {
		if err = os.MkdirAll(rc.outDir, 0o755); err == nil {
			err = os.WriteFile(path, append(data, '\n'), 0o644)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

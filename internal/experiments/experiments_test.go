package experiments

import (
	"strings"
	"testing"

	"github.com/streamtune/streamtune/internal/engine"
)

// tiny returns sub-Quick options for tests; under -short it shrinks the
// corpus and training further so the suite stays fast (the comparative
// shapes the gated tests assert need the larger scale).
func tiny() Options {
	o := Quick()
	o.CorpusSamples = 10
	o.TrainEpochs = 5
	o.MeasureTicks = 40
	if testing.Short() {
		o.CorpusSamples = 4
		o.TrainEpochs = 2
	}
	return o
}

func TestTable2MatchesPaper(t *testing.T) {
	tab, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range tab.Rows {
		if row[0] == "(Nexmark)q1" && row[1] == "bids" {
			if row[2] != "700K" || row[3] != "9M" {
				t.Fatalf("Q1 units = %v, want 700K / 9M", row)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("Q1 row missing")
	}
}

func TestFlinkWorkloadsCoverPaperSet(t *testing.T) {
	ws, err := FlinkWorkloads(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 8 {
		t.Fatalf("workloads = %d, want 8 (5 Nexmark + 3 PQP)", len(ws))
	}
	nex := 0
	for _, w := range ws {
		if w.Nexmark {
			nex++
		}
		if len(w.Units) == 0 {
			t.Errorf("%s has no rate units", w.Name)
		}
	}
	if nex != 5 {
		t.Fatalf("nexmark workloads = %d, want 5", nex)
	}
}

func TestCorpusGraphsCount(t *testing.T) {
	gs, err := CorpusGraphs(engine.Flink)
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 61 {
		t.Fatalf("corpus population = %d structures, want 61 (5 Nexmark + 56 PQP)", len(gs))
	}
}

func TestFig4Shape(t *testing.T) {
	points, ft, wt, err := Fig4(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 25 {
		t.Fatalf("points = %d, want 25", len(points))
	}
	// Processing ability must grow with parallelism (Fig. 4's shape) for
	// the saturated regions of both curves.
	if points[9].FilterPA <= points[0].FilterPA {
		t.Errorf("filter PA not increasing: p1=%.0f p10=%.0f", points[0].FilterPA, points[9].FilterPA)
	}
	if points[9].WindowPA <= points[0].WindowPA {
		t.Errorf("window PA not increasing: p1=%.0f p10=%.0f", points[0].WindowPA, points[9].WindowPA)
	}
	// Bottleneck thresholds exist, and the filter's is higher (it is the
	// costlier operator in this fixture, as in the paper: 14 vs 10).
	if ft <= 1 || wt <= 1 {
		t.Fatalf("thresholds = %d/%d, want both above 1", ft, wt)
	}
	if ft <= wt {
		t.Errorf("filter threshold %d not above window threshold %d", ft, wt)
	}
}

func TestFig5SumsToOne(t *testing.T) {
	tab, err := Fig5(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("no distribution rows")
	}
	var sb strings.Builder
	tab.Render(&sb)
	if !strings.Contains(sb.String(), "%") {
		t.Fatal("rendered table missing ratios")
	}
}

// TestCycleShapes runs a single-workload sweep per method and checks the
// paper's comparative claims at small scale.
func TestCycleShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	opts := tiny()
	env, err := buildEnv(opts)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := FlinkWorkloads(opts)
	if err != nil {
		t.Fatal(err)
	}
	var q5 Workload
	for _, w := range ws {
		if w.Name == "(Nexmark)Q5" {
			q5 = w
		}
	}
	stats := map[string]*CycleStats{}
	for _, m := range []string{MethodDS2, MethodContTune, MethodStreamTune} {
		s, err := RunCycle(q5, m, env, opts, engine.Flink)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		stats[m] = s
		if s.Processes != 20 {
			t.Fatalf("%s processes = %d, want 20 (one pattern)", m, s.Processes)
		}
		if s.FinalParallelismAt10Wu == 0 {
			t.Errorf("%s never recorded the 10xWu point", m)
		}
	}
	// StreamTune must not reconfigure more than DS2 on average (the
	// paper's headline efficiency claim).
	if stats[MethodStreamTune].AvgReconfigurations() > stats[MethodDS2].AvgReconfigurations()+0.5 {
		t.Errorf("StreamTune avg reconfigs %.2f above DS2 %.2f",
			stats[MethodStreamTune].AvgReconfigurations(), stats[MethodDS2].AvgReconfigurations())
	}
}

// TestFig11bSpeedup asserts the shape of the Fig 11b table only: one
// row per dataset scale whose speedup cell renders as a ratio. The
// ratio itself is measured wall clock and is not compared. Direct GED
// is the quadratic no-pruning baseline, so the dataset stays at 8
// graphs.
func TestFig11bSpeedup(t *testing.T) {
	tab, err := Fig11b(tiny(), []int{8})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(tab.Rows))
	}
	row := tab.Rows[0]
	if !strings.HasSuffix(row[3], "x") {
		t.Fatalf("speedup cell %q malformed", row[3])
	}
}

func TestRandomDAGSet(t *testing.T) {
	set := randomDAGSet(1, 25)
	if len(set) != 25 {
		t.Fatalf("set size = %d, want 25", len(set))
	}
	names := map[string]bool{}
	for _, g := range set {
		if names[g.Name] {
			t.Fatalf("duplicate name %s", g.Name)
		}
		names[g.Name] = true
		if err := g.Validate(); err != nil {
			t.Fatalf("invalid member: %v", err)
		}
	}
}

func TestPivotHandlesMissingMethods(t *testing.T) {
	stats := []*CycleStats{
		{Workload: "w1", Method: MethodDS2, Processes: 2, Reconfigurations: 4},
		{Workload: "w1", Method: MethodStreamTune, Processes: 2, Reconfigurations: 2},
	}
	tab := Fig7a(stats)
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(tab.Rows))
	}
	if tab.Rows[0][2] != "/" {
		t.Errorf("missing ContTune cell = %q, want /", tab.Rows[0][2])
	}
}

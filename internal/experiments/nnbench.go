package experiments

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"github.com/streamtune/streamtune/internal/baselines/zerotune"
	"github.com/streamtune/streamtune/internal/engine"
	"github.com/streamtune/streamtune/internal/gnn"
)

// NNBenchReport is the result of the neural-engine benchmark: the seed
// eager autodiff paths against the compiled-plan engine (pooled
// buffers, cached aggregation structures, block-diagonal batching) on
// the two training workloads this repository runs — per-cluster GNN
// pre-training and ZeroTune cost-model training. Every comparison
// cross-checks bit-identical results before timing is reported,
// mirroring BENCH_ged.json. Online inference is measured by the
// benchmark (bench/, gnn.infer_us and gnn.distill_us).
type NNBenchReport struct {
	CorpusExecutions   int `json:"corpus_executions"`
	DistinctStructures int `json:"distinct_structures"`
	Epochs             int `json:"epochs"`
	ZeroTuneEpochs     int `json:"zerotune_epochs"`

	// Pretrain: gnn.PretrainEager (seed) vs the batched gnn.Pretrain,
	// both at the default encoder/training configuration apart from the
	// epoch count. The seed runs the same structure-ordered execution
	// sequence the batched path uses, and both must produce
	// byte-identical weights.
	PretrainSeedSeconds float64 `json:"pretrain_seed_seconds"`
	PretrainPlanSeconds float64 `json:"pretrain_plan_seconds"`
	PretrainSpeedup     float64 `json:"pretrain_speedup"`

	// ZeroTune job-level cost-model training, eager vs compiled.
	ZeroTuneSeedSeconds float64 `json:"zerotune_seed_seconds"`
	ZeroTunePlanSeconds float64 `json:"zerotune_plan_seconds"`
	ZeroTuneSpeedup     float64 `json:"zerotune_speedup"`
}

// NNBench runs the neural-engine benchmark on the shared pre-training
// corpus.
func NNBench(opts Options) (*NNBenchReport, error) {
	corpus, err := BuildCorpus(engine.Flink, opts)
	if err != nil {
		return nil, err
	}
	r := &NNBenchReport{
		CorpusExecutions:   corpus.Len(),
		DistinctStructures: corpus.DistinctStructures(),
		Epochs:             opts.TrainEpochs,
	}

	// --- Pre-training ---
	cfg := gnn.DefaultConfig()
	topts := gnn.DefaultTrainOptions()
	topts.Epochs = opts.TrainEpochs
	grouped := gnn.GroupByStructure(corpus)

	start := time.Now()
	seedEnc, _, err := gnn.PretrainEager(grouped, cfg, topts)
	if err != nil {
		return nil, fmt.Errorf("nnbench: seed pretrain: %w", err)
	}
	r.PretrainSeedSeconds = time.Since(start).Seconds()

	start = time.Now()
	planEnc, _, err := gnn.Pretrain(corpus, cfg, topts)
	if err != nil {
		return nil, fmt.Errorf("nnbench: batched pretrain: %w", err)
	}
	r.PretrainPlanSeconds = time.Since(start).Seconds()

	seedW, err := seedEnc.MarshalParams()
	if err != nil {
		return nil, err
	}
	planW, err := planEnc.MarshalParams()
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(seedW, planW) {
		return nil, fmt.Errorf("nnbench: batched pretrain weights diverged from seed")
	}
	if r.PretrainPlanSeconds > 0 {
		r.PretrainSpeedup = r.PretrainSeedSeconds / r.PretrainPlanSeconds
	}

	// --- ZeroTune cost-model training ---
	// ZeroTune steps the optimizer once per execution, so its epochs are
	// far more expensive than pre-training epochs; cap the benchmark
	// phase to keep the whole report inside one sitting.
	zopts := zerotune.DefaultTrainOptions()
	zopts.Epochs = opts.TrainEpochs
	if zopts.Epochs > 10 {
		zopts.Epochs = 10
	}
	r.ZeroTuneEpochs = zopts.Epochs
	ezopts := zopts
	ezopts.Eager = true

	start = time.Now()
	seedModel, err := zerotune.Train(corpus, cfg, ezopts)
	if err != nil {
		return nil, fmt.Errorf("nnbench: seed zerotune: %w", err)
	}
	r.ZeroTuneSeedSeconds = time.Since(start).Seconds()

	start = time.Now()
	planModel, err := zerotune.Train(corpus, cfg, zopts)
	if err != nil {
		return nil, fmt.Errorf("nnbench: plan zerotune: %w", err)
	}
	r.ZeroTunePlanSeconds = time.Since(start).Seconds()
	if r.ZeroTunePlanSeconds > 0 {
		r.ZeroTuneSpeedup = r.ZeroTuneSeedSeconds / r.ZeroTunePlanSeconds
	}

	// The eager-trained and plan-trained models must agree bit for bit
	// on both predict engines.
	workloads, err := FlinkWorkloads(opts)
	if err != nil {
		return nil, err
	}
	for _, w := range workloads {
		par := make(map[string]int, w.Graph.NumOperators())
		for _, op := range w.Graph.Operators() {
			par[op.ID] = 8
		}
		want, err := seedModel.PredictDeficitEager(w.Graph, par)
		if err != nil {
			return nil, err
		}
		got, err := planModel.PredictDeficit(w.Graph, par)
		if err != nil {
			return nil, err
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			return nil, fmt.Errorf("nnbench: %s: plan zerotune model diverged from seed", w.Name)
		}
	}
	return r, nil
}

// NNBenchTable renders the benchmark report.
func NNBenchTable(r *NNBenchReport) *Table {
	t := &Table{
		Title: fmt.Sprintf("NN engine: compiled plans vs seed eager autodiff (%d executions, %d structures, %d epochs)",
			r.CorpusExecutions, r.DistinctStructures, r.Epochs),
		Header: []string{"Workload", "Seed", "Compiled", "Speedup"},
	}
	row := func(name string, seed, plan, speedup float64) {
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%.3fs", seed),
			fmt.Sprintf("%.3fs", plan),
			fmt.Sprintf("%.1fx", speedup),
		})
	}
	row("GNN pre-training (batched)", r.PretrainSeedSeconds, r.PretrainPlanSeconds, r.PretrainSpeedup)
	row("ZeroTune cost-model training", r.ZeroTuneSeedSeconds, r.ZeroTunePlanSeconds, r.ZeroTuneSpeedup)
	return t
}

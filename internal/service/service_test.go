package service

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/streamtune/streamtune/internal/dag"
	"github.com/streamtune/streamtune/internal/engine"
	"github.com/streamtune/streamtune/internal/history"
	"github.com/streamtune/streamtune/internal/nexmark"
	"github.com/streamtune/streamtune/internal/pqp"
	"github.com/streamtune/streamtune/internal/streamtune"
)

// The shared pre-training artifact is expensive; build it once per test
// binary, exactly like the experiment drivers share theirs.
var (
	ptOnce sync.Once
	ptVal  *streamtune.PreTrained
	ptErr  error
)

func sharedPreTrained(t *testing.T) *streamtune.PreTrained {
	t.Helper()
	ptOnce.Do(func() {
		var graphs []*dag.Graph
		for _, q := range []nexmark.Query{nexmark.Q2, nexmark.Q3, nexmark.Q5} {
			g, err := nexmark.Build(q, engine.Flink)
			if err != nil {
				ptErr = err
				return
			}
			graphs = append(graphs, g)
		}
		for _, spec := range []struct {
			tmpl    pqp.Template
			variant int
		}{{pqp.Linear, 0}, {pqp.TwoWayJoin, 2}} {
			g, err := pqp.Build(spec.tmpl, spec.variant)
			if err != nil {
				ptErr = err
				return
			}
			graphs = append(graphs, g)
		}
		hopts := history.DefaultOptions(engine.Flink)
		hopts.SamplesPerGraph = 25
		hopts.Engine.MeasureTicks = 40
		corpus, err := history.Generate(graphs, hopts)
		if err != nil {
			ptErr = err
			return
		}
		cfg := streamtune.DefaultConfig()
		cfg.Train.Epochs = 12
		cfg.WarmupSamples = 40
		cfg.StabilizeWait = time.Minute
		ptVal, ptErr = streamtune.PreTrain(corpus, cfg)
	})
	if ptErr != nil {
		t.Fatal(ptErr)
	}
	return ptVal
}

// targetGraph builds one tuning target at a deterministic offered rate.
func targetGraph(t *testing.T, q nexmark.Query, rate float64) *dag.Graph {
	t.Helper()
	g, err := nexmark.Build(q, engine.Flink)
	if err != nil {
		t.Fatal(err)
	}
	g.ScaleSourceRates(rate)
	return g
}

// testEngineConfig is the client-system configuration used throughout.
func testEngineConfig() engine.Config {
	cfg := engine.DefaultConfig(engine.Flink)
	cfg.MeasureTicks = 40
	return cfg
}

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s, err := New(sharedPreTrained(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// driveJob runs one registered job's engine against the service until
// the tuning process converges, returning the final recommendation.
func driveJob(t *testing.T, s *Service, id string, g *dag.Graph, engCfg engine.Config) map[string]int {
	t.Helper()
	eng, err := engine.New(g, engCfg)
	if err != nil {
		t.Fatal(err)
	}
	stabilize := s.pt.Config.StabilizeWait
	for i := 0; i < 200; i++ {
		rec, err := s.Recommend(context.Background(), id)
		if err != nil {
			t.Fatalf("job %s: recommend: %v", id, err)
		}
		if rec.Done {
			return rec.Parallelism
		}
		if rec.Deploy {
			if err := eng.Deploy(rec.Parallelism); err != nil {
				t.Fatalf("job %s: deploy: %v", id, err)
			}
			eng.Stabilize(stabilize)
		}
		m, err := eng.Run()
		if err != nil {
			t.Fatalf("job %s: run: %v", id, err)
		}
		done, err := s.Observe(context.Background(), id, m)
		if err != nil {
			t.Fatalf("job %s: observe: %v", id, err)
		}
		if done {
			rec, err := s.Recommend(context.Background(), id)
			if err != nil {
				t.Fatalf("job %s: final recommend: %v", id, err)
			}
			return rec.Parallelism
		}
	}
	t.Fatalf("job %s: no convergence in 200 rounds", id)
	return nil
}

// sequentialResult tunes the same job with a caller-owned Tuner, the
// single-job path the service must match bit for bit.
func sequentialResult(t *testing.T, g *dag.Graph, engCfg engine.Config) map[string]int {
	t.Helper()
	pt := sharedPreTrained(t)
	eng, err := engine.New(g, engCfg)
	if err != nil {
		t.Fatal(err)
	}
	tuner, err := streamtune.NewTuner(pt, eng.Graph())
	if err != nil {
		t.Fatal(err)
	}
	res, err := tuner.Tune(eng)
	if err != nil {
		t.Fatal(err)
	}
	return res.Parallelism
}

// badTypeGraph builds a structurally valid DAG containing an operator
// type outside the known range.
func badTypeGraph(t *testing.T) *dag.Graph {
	t.Helper()
	g := dag.New("bad-type")
	for _, op := range []*dag.Operator{
		{ID: "src", Type: dag.Source, SourceRate: 100},
		{ID: "weird", Type: dag.OpType(250)},
		{ID: "sink", Type: dag.Sink},
	} {
		if err := g.AddOperator(op); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]string{{"src", "weird"}, {"weird", "sink"}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestServiceAdmission is the table-driven admission-reject matrix.
func TestServiceAdmission(t *testing.T) {
	s := newTestService(t, DefaultConfig())
	engCfg := testEngineConfig()
	if _, err := s.Register(context.Background(), "taken", targetGraph(t, nexmark.Q5, 4), engCfg); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		jobID string
		graph *dag.Graph
		want  error
	}{
		{name: "empty job ID", jobID: "", graph: targetGraph(t, nexmark.Q5, 4), want: ErrInvalidJob},
		{name: "nil graph", jobID: "nil-graph", graph: nil, want: ErrInvalidJob},
		{name: "empty DAG", jobID: "empty-dag", graph: dag.New("empty"), want: ErrInvalidJob},
		{name: "unknown operator type", jobID: "bad-type", graph: badTypeGraph(t), want: ErrInvalidJob},
		{name: "duplicate job ID", jobID: "taken", graph: targetGraph(t, nexmark.Q5, 4), want: ErrDuplicateJob},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := s.Register(context.Background(), tc.jobID, tc.graph, engCfg)
			if !errors.Is(err, tc.want) {
				t.Fatalf("Register(%q) error = %v, want %v", tc.jobID, err, tc.want)
			}
		})
	}

	if got := s.Stats().Sessions.Rejected; got != uint64(len(cases)) {
		t.Errorf("Rejected = %d, want %d", got, len(cases))
	}
	if got := s.Stats().Sessions.Active; got != 1 {
		t.Errorf("ActiveSessions = %d, want 1", got)
	}
}

// TestServiceSessionLimit asserts the registry cap rejects the
// overflowing registration.
func TestServiceSessionLimit(t *testing.T) {
	s := newTestService(t, Config{MaxSessions: 1})
	engCfg := testEngineConfig()
	if _, err := s.Register(context.Background(), "a", targetGraph(t, nexmark.Q5, 4), engCfg); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register(context.Background(), "b", targetGraph(t, nexmark.Q3, 4), engCfg); !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("err = %v, want ErrSessionLimit", err)
	}
	if err := s.Release("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register(context.Background(), "b", targetGraph(t, nexmark.Q3, 4), engCfg); err != nil {
		t.Fatalf("register after release: %v", err)
	}
}

// TestServiceProtocol asserts the recommend/observe alternation is
// enforced per session.
func TestServiceProtocol(t *testing.T) {
	s := newTestService(t, DefaultConfig())
	engCfg := testEngineConfig()
	g := targetGraph(t, nexmark.Q5, 4)
	if _, err := s.Register(context.Background(), "p", g, engCfg); err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(g, engCfg)
	if err != nil {
		t.Fatal(err)
	}

	m0 := &engine.JobMetrics{}
	if _, err := s.Observe(context.Background(), "p", m0); !errors.Is(err, ErrAwaitingRecommend) {
		t.Fatalf("observe before recommend: err = %v, want ErrAwaitingRecommend", err)
	}
	rec, err := s.Recommend(context.Background(), "p")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Done || !rec.Deploy {
		t.Fatalf("first recommendation: done=%v deploy=%v, want active deploy", rec.Done, rec.Deploy)
	}
	if _, err := s.Recommend(context.Background(), "p"); !errors.Is(err, ErrAwaitingMetrics) {
		t.Fatalf("double recommend: err = %v, want ErrAwaitingMetrics", err)
	}
	if err := eng.Deploy(rec.Parallelism); err != nil {
		t.Fatal(err)
	}
	m, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Observe(context.Background(), "p", m); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Observe(context.Background(), "unknown", m); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown job: err = %v, want ErrUnknownJob", err)
	}
	info, err := s.Session("p")
	if err != nil {
		t.Fatal(err)
	}
	if info.Iteration != 1 || len(info.History) != 1 {
		t.Fatalf("session info: iteration=%d history=%d, want 1 and 1", info.Iteration, len(info.History))
	}
}

// TestServiceMatchesSequentialTuner drives concurrent jobs through the
// service and asserts every final recommendation is bit-identical to a
// caller-owned sequential Tuner.Tune run of the same job.
func TestServiceMatchesSequentialTuner(t *testing.T) {
	engCfg := testEngineConfig()
	jobs := []struct {
		id   string
		q    nexmark.Query
		rate float64
	}{
		{"q5-lo", nexmark.Q5, 3}, {"q5-hi", nexmark.Q5, 7},
		{"q3-lo", nexmark.Q3, 3}, {"q3-hi", nexmark.Q3, 7},
		{"q2-lo", nexmark.Q2, 3}, {"q2-hi", nexmark.Q2, 7},
		{"q8-lo", nexmark.Q8, 3}, {"q8-hi", nexmark.Q8, 7},
	}

	want := make([]map[string]int, len(jobs))
	for i, j := range jobs {
		want[i] = sequentialResult(t, targetGraph(t, j.q, j.rate), engCfg)
	}

	s := newTestService(t, Config{Workers: 4})
	// Register sequentially so the shared-cache hit counts are exact;
	// the tuning loops below run fully concurrently.
	graphs := make([]*dag.Graph, len(jobs))
	for i, j := range jobs {
		graphs[i] = targetGraph(t, j.q, j.rate)
		if _, err := s.Register(context.Background(), j.id, graphs[i], engCfg); err != nil {
			t.Fatalf("register %s: %v", j.id, err)
		}
	}
	got := make([]map[string]int, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = driveJob(t, s, j.id, graphs[i], engCfg)
		}()
	}
	wg.Wait()

	for i, j := range jobs {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("job %s: service recommendation diverged from sequential tuner:\n got %v\nwant %v",
				j.id, got[i], want[i])
		}
	}
	st := s.Stats()
	if st.Sessions.Completed != uint64(len(jobs)) {
		t.Errorf("Completed = %d, want %d", st.Sessions.Completed, len(jobs))
	}
	// Six of the eight jobs repeat another job's DAG structure, so their
	// admissions must resolve entirely from the shared GED cache.
	if st.Admission.CacheHits < 4 {
		t.Errorf("AdmissionCacheHits = %d, want >= 4", st.Admission.CacheHits)
	}
	if st.Admission.EncoderWarmHits < 4 {
		t.Errorf("EncoderWarmHits = %d, want >= 4", st.Admission.EncoderWarmHits)
	}
}

// TestServiceSnapshotRestore interrupts every job mid-tuning, restores
// the registry from the JSON snapshot onto a fresh service, and asserts
// the resumed runs finish bit-identical to uninterrupted ones.
func TestServiceSnapshotRestore(t *testing.T) {
	engCfg := testEngineConfig()
	jobs := []struct {
		id   string
		q    nexmark.Query
		rate float64
	}{
		{"q5", nexmark.Q5, 5}, {"q3", nexmark.Q3, 5}, {"q2", nexmark.Q2, 6},
	}

	want := make([]map[string]int, len(jobs))
	for i, j := range jobs {
		want[i] = sequentialResult(t, targetGraph(t, j.q, j.rate), engCfg)
	}

	s := newTestService(t, DefaultConfig())
	engines := make([]*engine.Engine, len(jobs))
	stabilize := s.pt.Config.StabilizeWait
	for i, j := range jobs {
		g := targetGraph(t, j.q, j.rate)
		if _, err := s.Register(context.Background(), j.id, g, engCfg); err != nil {
			t.Fatal(err)
		}
		eng, err := engine.New(g, engCfg)
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = eng
		// Advance each job a different number of rounds so the snapshot
		// spans sessions at distinct loop positions (including phase
		// boundaries).
		for round := 0; round <= i; round++ {
			rec, err := s.Recommend(context.Background(), j.id)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Done {
				break
			}
			if rec.Deploy {
				if err := eng.Deploy(rec.Parallelism); err != nil {
					t.Fatal(err)
				}
				eng.Stabilize(stabilize)
			}
			m, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Observe(context.Background(), j.id, m); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Freeze the last job in the observe phase: its recommendation is
	// deployed but unmeasured when the snapshot is cut.
	last := len(jobs) - 1
	if info, err := s.Session(jobs[last].id); err != nil {
		t.Fatal(err)
	} else if info.Phase == "recommend" {
		rec, err := s.Recommend(context.Background(), jobs[last].id)
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Done && rec.Deploy {
			if err := engines[last].Deploy(rec.Parallelism); err != nil {
				t.Fatal(err)
			}
			engines[last].Stabilize(stabilize)
		}
	}

	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(sharedPreTrained(t), DefaultConfig(), data)
	if err != nil {
		t.Fatal(err)
	}
	if gotIDs, wantIDs := restored.JobIDs(), s.JobIDs(); !reflect.DeepEqual(gotIDs, wantIDs) {
		t.Fatalf("restored jobs = %v, want %v", gotIDs, wantIDs)
	}
	// The snapshot must be reproducible: same registry, same bytes.
	again, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Error("snapshot of an unchanged registry produced different bytes")
	}

	for i, j := range jobs {
		got := resumeJob(t, restored, j.id, engines[i], stabilize)
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("job %s: restored recommendation diverged from uninterrupted run:\n got %v\nwant %v",
				j.id, got, want[i])
		}
	}
}

// resumeJob finishes a job whose engine survived the service restart.
func resumeJob(t *testing.T, s *Service, id string, eng *engine.Engine, stabilize time.Duration) map[string]int {
	t.Helper()
	for i := 0; i < 200; i++ {
		info, err := s.Session(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.Phase == "observe" {
			// The outstanding recommendation was deployed before the
			// snapshot; measure and post.
			m, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Observe(context.Background(), id, m); err != nil {
				t.Fatal(err)
			}
			continue
		}
		rec, err := s.Recommend(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Done {
			return rec.Parallelism
		}
		if rec.Deploy {
			if err := eng.Deploy(rec.Parallelism); err != nil {
				t.Fatal(err)
			}
			eng.Stabilize(stabilize)
		}
		m, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Observe(context.Background(), id, m); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatalf("job %s: no convergence after restore", id)
	return nil
}

// TestServiceLeaseEviction asserts idle sessions are evicted once their
// lease expires, and active ones keep renewing.
func TestServiceLeaseEviction(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	s := newTestService(t, Config{LeaseTTL: time.Hour, Clock: clock})
	engCfg := testEngineConfig()
	if _, err := s.Register(context.Background(), "idle", targetGraph(t, nexmark.Q5, 4), engCfg); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register(context.Background(), "busy", targetGraph(t, nexmark.Q3, 4), engCfg); err != nil {
		t.Fatal(err)
	}

	if n := s.EvictIdle(); n != 0 {
		t.Fatalf("evicted %d sessions before expiry, want 0", n)
	}
	now = now.Add(45 * time.Minute)
	if _, err := s.Recommend(context.Background(), "busy"); err != nil { // renews busy's lease
		t.Fatal(err)
	}
	now = now.Add(30 * time.Minute) // idle is now 75m stale, busy 30m
	if n := s.EvictIdle(); n != 1 {
		t.Fatalf("evicted %d sessions, want 1", n)
	}
	if _, err := s.Session("idle"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("idle session survived eviction: %v", err)
	}
	if _, err := s.Session("busy"); err != nil {
		t.Fatalf("busy session evicted: %v", err)
	}
	if got := s.Stats().Sessions.Evicted; got != 1 {
		t.Errorf("Stats.Evicted = %d, want 1", got)
	}
}

// TestServiceConcurrentRegistration hammers Register with duplicate and
// distinct IDs; exactly one registration per ID must win.
func TestServiceConcurrentRegistration(t *testing.T) {
	s := newTestService(t, Config{Workers: 4})
	engCfg := testEngineConfig()
	const dups = 6
	var wg sync.WaitGroup
	errs := make([]error, dups)
	for i := 0; i < dups; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = s.Register(context.Background(), "same", targetGraph(t, nexmark.Q5, 4), engCfg)
		}()
	}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := fmt.Sprintf("job-%d", i)
			if _, err := s.Register(context.Background(), id, targetGraph(t, nexmark.Q3, 4), engCfg); err != nil {
				t.Errorf("register %s: %v", id, err)
			}
		}()
	}
	wg.Wait()
	var won int
	for _, err := range errs {
		if err == nil {
			won++
		} else if !errors.Is(err, ErrDuplicateJob) {
			t.Errorf("unexpected duplicate error: %v", err)
		}
	}
	if won != 1 {
		t.Errorf("%d registrations of the same ID succeeded, want exactly 1", won)
	}
	if got := s.Stats().Sessions.Active; got != 4 {
		t.Errorf("ActiveSessions = %d, want 4", got)
	}
}

// TestAdmissionCacheCapInStats proves a capped admission cache epoch-
// resets under pressure and surfaces size/cap/resets through Stats.
func TestAdmissionCacheCapInStats(t *testing.T) {
	engCfg := testEngineConfig()
	s := newTestService(t, Config{Workers: 2, AdmissionCacheCap: 2})
	for i, q := range []nexmark.Query{nexmark.Q2, nexmark.Q3, nexmark.Q5} {
		g := targetGraph(t, q, 3)
		if _, err := s.Register(context.Background(), g.Name+"-cap", g, engCfg); err != nil {
			t.Fatalf("register %d: %v", i, err)
		}
	}
	st := s.Stats()
	if st.Admission.CacheCap != 2 {
		t.Fatalf("AdmissionCacheCap = %d, want 2", st.Admission.CacheCap)
	}
	if st.Admission.CacheSize > 2 {
		t.Fatalf("AdmissionCacheSize = %d exceeds cap", st.Admission.CacheSize)
	}
	// Three distinct structures against >= 1 center exceed two pairs, so
	// at least one epoch reset must have fired.
	if st.Admission.CacheResets == 0 {
		t.Fatalf("no epoch resets despite cap pressure: %+v", st)
	}
}

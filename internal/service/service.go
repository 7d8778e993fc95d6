// Package service implements the multi-tenant online tuning service: a
// long-running, concurrency-safe front end over one shared PreTrained
// artifact set (clustering, per-cluster GNN encoders, corpus partition)
// and a registry of per-job tuning sessions.
//
// Each job passes admission (DAG validation, cluster assignment through
// a shared fingerprint-keyed GED cache), then follows a lease-based
// lifecycle: register -> recommend -> observe metrics -> ... -> done,
// with idle sessions evicted when their lease expires. The expensive
// per-request work (model refits, encoder inference) runs through a
// bounded worker pool, so a burst of tenants degrades into queueing
// rather than unbounded goroutine fan-out. Session state snapshots to
// JSON and restores onto a fresh service holding the same PreTrained
// artifact, resuming every job mid-tuning with bit-identical
// recommendations.
//
// The service never touches an engine: clients own their systems,
// deploy the recommendations they receive, and post back the measured
// windows. Driving Step/Observe through the service is bit-identical to
// a local Tuner.Tune run against the same system (see
// internal/streamtune.Process).
package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/streamtune/streamtune/internal/dag"
	"github.com/streamtune/streamtune/internal/engine"
	"github.com/streamtune/streamtune/internal/ged"
	"github.com/streamtune/streamtune/internal/gnn"
	"github.com/streamtune/streamtune/internal/logbuffer"
	"github.com/streamtune/streamtune/internal/mono"
	"github.com/streamtune/streamtune/internal/parallel"
	"github.com/streamtune/streamtune/internal/streamtune"
	"github.com/streamtune/streamtune/internal/telemetry"
)

// Admission and lifecycle errors. Callers distinguish them with
// errors.Is; the HTTP layer maps them to status codes.
var (
	// ErrInvalidJob rejects admission: malformed job ID or DAG.
	ErrInvalidJob = errors.New("service: invalid job")
	// ErrDuplicateJob rejects admission: the job ID is already registered.
	ErrDuplicateJob = errors.New("service: job already registered")
	// ErrSessionLimit rejects admission: the registry is full.
	ErrSessionLimit = errors.New("service: session limit reached")
	// ErrUnknownJob reports an unregistered (or evicted) job ID.
	ErrUnknownJob = errors.New("service: unknown job")
	// ErrAwaitingMetrics reports a Recommend while the previous
	// recommendation still awaits its measurement window.
	ErrAwaitingMetrics = errors.New("service: awaiting metrics for the outstanding recommendation")
	// ErrAwaitingRecommend reports an Observe with no outstanding
	// recommendation.
	ErrAwaitingRecommend = errors.New("service: no outstanding recommendation")
	// ErrCompleted reports an Observe on a finished tuning process.
	ErrCompleted = errors.New("service: tuning process already complete")
	// ErrMutating reports a request that raced a topology mutation: the
	// session is being re-admitted under its mutated DAG and is not
	// addressable until the mutation commits or rolls back.
	ErrMutating = errors.New("service: topology mutation in progress")
	// ErrOverloaded reports load shedding: the worker pool's waiting room
	// or the inference batcher was saturated and the request was rejected
	// immediately instead of queueing. The condition is transient — the
	// HTTP layer maps it to 503 with a Retry-After hint.
	ErrOverloaded = errors.New("service: overloaded")
)

// Config parameterizes a Service.
type Config struct {
	// LeaseTTL is how long a session may sit idle before EvictIdle
	// removes it. Zero or negative disables idle eviction.
	LeaseTTL time.Duration
	// MaxSessions caps the registry size. Zero or negative means
	// unlimited.
	MaxSessions int
	// Workers bounds the worker pool executing model refits and encoder
	// inference; values below one use every CPU.
	Workers int
	// BatchWindow is the deadline of the cross-tenant inference
	// micro-batcher: a registration's target inference waits up to this
	// long for other tenants with the same structural fingerprint, then
	// executes the whole group as one block-diagonal batched forward.
	// Zero or negative disables batching (every request takes the
	// single-graph path, the pre-batcher behavior).
	BatchWindow time.Duration
	// MaxBatch caps how many requests one batch may coalesce; a full
	// queue flushes before its deadline. Values below two default to 8.
	// Only meaningful when BatchWindow is positive.
	MaxBatch int
	// MaxQueue bounds the worker pool's waiting room: beyond Workers
	// requests executing plus MaxQueue waiting, Register/Recommend/
	// Observe shed immediately with ErrOverloaded instead of queueing.
	// Zero or negative leaves the waiting room unbounded (no shedding —
	// the batch-driver default; servers opt in).
	MaxQueue int
	// MaxPendingInfer bounds how many registrations may sit in the
	// inference batcher's coalescing windows at once; beyond it,
	// registrations shed with ErrOverloaded. Zero or negative means
	// unbounded. Only meaningful when BatchWindow is positive.
	MaxPendingInfer int
	// AdmissionCacheCap bounds the shared admission GED cache (in pairs)
	// with epoch reset: at the cap the cache drops its map and starts a
	// fresh epoch, so a 100k-graph soak doesn't hold every pair ever
	// computed. Entries are pure recomputable distances, so a reset
	// costs only recomputation. Zero or negative means unbounded.
	AdmissionCacheCap int
	// RequestTimeout is a server-side deadline applied to every
	// Register/Recommend/Observe call on top of the caller's context, so
	// a request stuck behind a saturated pool eventually abandons the
	// wait with context.DeadlineExceeded instead of occupying the
	// waiting room forever. Zero or negative applies none.
	RequestTimeout time.Duration
	// RetryAfter is the back-off hint returned with 503 responses when a
	// request is shed. Zero or negative defaults to 1s.
	RetryAfter time.Duration
	// Clock supplies the current time for leases; nil uses time.Now.
	// Tests and deterministic drivers inject a fake clock.
	Clock func() time.Time
	// Metrics attaches a telemetry bundle (NewMetrics over a fresh
	// registry): the serving path records latency histograms and
	// counters into it and GET /metrics serves the registry in
	// Prometheus text format. Nil disables all instrumentation — the
	// disabled path is provably inert (bit-identical recommendations,
	// differential-tested) and /metrics answers 404.
	Metrics *Metrics
	// Logs attaches a structured-log ring buffer served at GET /v1/logs.
	// Nil disables the endpoint. The buffer usually also backs one
	// handler of the Logger fanout, but the two are independent.
	Logs *logbuffer.Buffer
	// Logger receives structured lifecycle logs (admissions, releases,
	// evictions, checkpoints, mutations, sheds). Nil discards them.
	Logger *slog.Logger
}

// DefaultConfig returns the serving defaults.
func DefaultConfig() Config {
	return Config{
		LeaseTTL:    30 * time.Minute,
		MaxSessions: 1024,
		BatchWindow: 2 * time.Millisecond,
		MaxBatch:    8,
	}
}

// sessionPhase is the protocol position of a session.
type sessionPhase int

const (
	phaseBuilding  sessionPhase = iota // admission in progress; not addressable yet
	phaseRecommend                     // next call must be Recommend
	phaseObserve                       // next call must be Observe
	phaseDone                          // tuning complete
	phaseMutating                      // topology mutation in flight; last-committed state still in place
)

func (p sessionPhase) String() string {
	switch p {
	case phaseBuilding:
		return "building"
	case phaseRecommend:
		return "recommend"
	case phaseObserve:
		return "observe"
	case phaseDone:
		return "done"
	case phaseMutating:
		return "mutating"
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// session is one registered job's tuning state. Its mutex serializes
// the per-job protocol; distinct sessions proceed concurrently up to
// the worker-pool bound.
type session struct {
	mu sync.Mutex

	// busy counts in-flight Recommend/Observe requests, incremented
	// under the registry lock at lookup; EvictIdle skips busy sessions,
	// so a request queued behind the worker pool can never have its
	// session evicted (and then silently dropped from the next
	// snapshot) while it waits.
	busy atomic.Int32

	id          string
	clusterID   int
	clusterDist float64
	graph       *dag.Graph
	engCfg      engine.Config

	tuner *streamtune.Tuner
	proc  *streamtune.Process

	phase sessionPhase
	// prevPhase is the protocol position a topology mutation left behind;
	// while phase is phaseMutating the session's last-committed state
	// (graph, tuner, process) is still in place, so snapshots serialize
	// prevPhase and the old state. Meaningless in every other phase.
	prevPhase sessionPhase
	history   []Recommendation
	lease     time.Time

	// recs/bps are the session's per-tenant telemetry counters
	// (deployed reconfigurations, backpressured windows), resolved once
	// at admission and deleted on release/eviction. Nil when telemetry
	// is disabled — Inc on a nil counter is a no-op.
	recs *telemetry.Counter
	bps  *telemetry.Counter
}

// Recommendation is one recommend-step outcome, also the unit of the
// per-session history.
type Recommendation struct {
	JobID     string `json:"job_id"`
	Iteration int    `json:"iteration"`
	// Parallelism is the per-operator assignment the client should run.
	// On Done it is the final recommendation of the whole process.
	Parallelism map[string]int `json:"parallelism,omitempty"`
	// Deploy reports whether Parallelism differs from the client's
	// current deployment and must be rolled out before measuring.
	Deploy bool `json:"deploy"`
	// Done reports process convergence; no further steps are needed.
	Done bool `json:"done"`
}

// StatsSchemaVersion is the version of the GET /v1/stats document.
// Version 2 grouped the former flat counter blob into per-subsystem
// sections; version 3 dropped the observer section. Consumers dispatch
// on schema_version.
const StatsSchemaVersion = 3

// Stats is a point-in-time counter snapshot, grouped by subsystem.
type Stats struct {
	SchemaVersion int             `json:"schema_version"`
	Sessions      SessionStats    `json:"sessions"`
	Admission     AdmissionStats  `json:"admission"`
	Batching      BatchingStats   `json:"batching"`
	Overload      OverloadStats   `json:"overload"`
	Checkpoint    CheckpointStats `json:"checkpoint"`
}

// SessionStats covers the session registry and the tuning protocol.
type SessionStats struct {
	Active          int    `json:"active"`
	Registered      uint64 `json:"registered"`
	Rejected        uint64 `json:"rejected"`
	Released        uint64 `json:"released"`
	Evicted         uint64 `json:"evicted"`
	Completed       uint64 `json:"completed"`
	Recommendations uint64 `json:"recommendations"`
	Observations    uint64 `json:"observations"`
	// TopologyMutations counts committed mid-stream DAG mutations;
	// MutationsRejected counts mutation requests that failed validation
	// or re-admission (the session rolled back to its previous state).
	TopologyMutations uint64 `json:"topology_mutations"`
	MutationsRejected uint64 `json:"mutations_rejected"`
}

// AdmissionStats covers the shared GED cache and encoder warmth.
type AdmissionStats struct {
	// CacheHits counts cluster assignments fully resolved from the
	// shared fingerprint-keyed GED cache (no exact GED computed);
	// CacheMisses counts the rest. Their ratio is the shared-artifact
	// hit rate of admission.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// CacheSize is the pairs held right now; CacheCap the configured
	// bound (0 = unbounded); CacheResets how many times the cache hit
	// its cap and started a fresh epoch.
	CacheSize   int    `json:"cache_size"`
	CacheCap    int    `json:"cache_cap"`
	CacheResets uint64 `json:"cache_resets"`
	// EncoderWarmHits counts registrations assigned to a cluster whose
	// encoder had already served an earlier session of this process —
	// its compiled plans and structure caches are warm.
	EncoderWarmHits uint64 `json:"encoder_warm_hits"`
}

// BatchingStats covers the cross-tenant inference micro-batcher.
type BatchingStats struct {
	// Flushes counts executed inference batches (any size);
	// BatchedSessions counts sessions served from multi-request batches
	// and UnbatchedSessions the rest (lone flushes plus shutdown and
	// disabled-batcher fallbacks). Their split is the coalescing rate
	// of the cross-tenant micro-batcher.
	Flushes           uint64 `json:"flushes"`
	BatchedSessions   uint64 `json:"batched_sessions"`
	UnbatchedSessions uint64 `json:"unbatched_sessions"`
}

// OverloadStats covers the worker pool and load shedding.
type OverloadStats struct {
	// WorkersInFlight and WorkerCap describe the worker pool at the
	// moment of the snapshot; WorkersQueued is how many admitted requests
	// are waiting for a slot right now.
	WorkersInFlight int `json:"workers_in_flight"`
	WorkerCap       int `json:"worker_cap"`
	WorkersQueued   int `json:"workers_queued"`
	// Shed counts requests rejected with ErrOverloaded (waiting room or
	// batcher full); DeadlineExceeded and Canceled count requests
	// abandoned through their context before completing.
	Shed             uint64 `json:"shed"`
	DeadlineExceeded uint64 `json:"deadline_exceeded"`
	Canceled         uint64 `json:"canceled"`
}

// CheckpointStats covers crash-safe checkpointing. All fields except
// Mutations are maintained by an attached Checkpointer.
type CheckpointStats struct {
	// Mutations counts registry state changes (the checkpointer's
	// dirtiness signal).
	Mutations uint64 `json:"mutations"`
	Written   uint64 `json:"written"`
	Failures  uint64 `json:"failures"`
	LastBytes uint64 `json:"last_bytes"`
	// LastSeq is the sequence number of the newest written checkpoint
	// (meaningful once Written > 0).
	LastSeq uint64 `json:"last_seq"`
}

// Service is the multi-tenant tuning service. Create with New; all
// methods are safe for concurrent use.
type Service struct {
	cfg  Config
	pt   *streamtune.PreTrained
	pool *parallel.Limiter
	// admission memoizes exact GED values across every admission; the
	// corpus-scale observation (PR2) holds for tenants too: most jobs
	// are structural clones of a few templates.
	admission *ged.PairCache
	// batch coalesces same-fingerprint target inference across tenants;
	// nil when Config.BatchWindow disables it.
	batch *batcher
	// warmups caches the per-cluster warm-up dataset (cluster id ->
	// *warmupEntry); ClusterWarmup is a pure function of (artifact,
	// cluster), so one construction serves every registration.
	warmups sync.Map

	mu           sync.Mutex
	sessions     map[string]*session
	warmClusters map[int]bool

	registered      atomic.Uint64
	rejected        atomic.Uint64
	released        atomic.Uint64
	evicted         atomic.Uint64
	completed       atomic.Uint64
	recommendations atomic.Uint64
	observations    atomic.Uint64
	admissionHits   atomic.Uint64
	admissionMisses atomic.Uint64
	encoderWarmHits atomic.Uint64
	topoMutations   atomic.Uint64
	topoRejected    atomic.Uint64

	// mutations counts registry state changes (registrations, steps,
	// observations, releases, evictions) — the checkpointer's dirtiness
	// signal.
	mutations atomic.Uint64
	// shed counts requests rejected because the worker pool's waiting
	// room or the batcher was saturated; deadlineExceeded and canceled
	// count requests abandoned through their context.
	shed             atomic.Uint64
	deadlineExceeded atomic.Uint64
	canceled         atomic.Uint64
	// checkpointsWritten/checkpointFailures are maintained by an
	// attached Checkpointer.
	checkpointsWritten  atomic.Uint64
	checkpointFailures  atomic.Uint64
	checkpointLastBytes atomic.Uint64
	checkpointLastSeq   atomic.Uint64

	// ready gates GET /readyz: true once the service is fully built
	// (New/Restore return only complete services, so construction sets
	// it), flipped false by the server when draining begins.
	ready atomic.Bool

	// log is the resolved logger: Config.Logger or a discard logger,
	// never nil.
	log *slog.Logger
}

// Ready reports whether the service should receive traffic: restore is
// finished, the PreTrained artifact is loaded, and the server is not
// draining. GET /readyz serves this.
func (s *Service) Ready() bool { return s.ready.Load() }

// SetReady flips the readiness gate; servers call SetReady(false) at
// the start of a graceful shutdown so load balancers stop routing new
// traffic before the drain.
func (s *Service) SetReady(ready bool) {
	if s.ready.Swap(ready) != ready {
		s.log.Info("readiness changed", "ready", ready)
	}
}

// discardHandler drops every record (the stdlib gains one in later Go
// versions; this keeps go 1.22 compatibility).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// Mutations reports the number of registry state changes since startup.
// The checkpointer compares successive values to decide whether a new
// checkpoint is due.
func (s *Service) Mutations() uint64 { return s.mutations.Load() }

// New creates a service over a shared pre-training artifact.
func New(pt *streamtune.PreTrained, cfg Config) (*Service, error) {
	if pt == nil || len(pt.Encoders) == 0 {
		return nil, fmt.Errorf("service: nil or empty PreTrained artifact")
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	maxQueue := cfg.MaxQueue
	if maxQueue <= 0 {
		maxQueue = -1 // unbounded waiting room: DoCtx never sheds
	}
	s := &Service{
		cfg:          cfg,
		pt:           pt,
		pool:         parallel.NewBoundedLimiter(cfg.Workers, maxQueue),
		admission:    ged.NewPairCacheCap(cfg.AdmissionCacheCap),
		batch:        newBatcher(cfg.BatchWindow, cfg.MaxBatch, cfg.MaxPendingInfer),
		sessions:     make(map[string]*session),
		warmClusters: make(map[int]bool),
		log:          slog.New(discardHandler{}),
	}
	if cfg.Logger != nil {
		s.log = cfg.Logger
	}
	if m := cfg.Metrics; m != nil {
		m.bind(s)
		if s.batch != nil {
			s.batch.occHist = m.batchOccupancy
		}
	}
	// A fully constructed service is ready by definition: New returns
	// only after the artifact is validated, and Restore only after every
	// session resumed. The server flips this off when draining.
	s.ready.Store(true)
	return s, nil
}

// requestCtx applies the service-side request deadline on top of the
// caller's context. The returned cancel must always be called.
func (s *Service) requestCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if s.cfg.RequestTimeout > 0 {
		return context.WithTimeout(ctx, s.cfg.RequestTimeout)
	}
	return ctx, func() {}
}

// classify folds an overload or context failure into the service's
// resilience counters and normalizes saturation to ErrOverloaded. Other
// errors pass through untouched.
func (s *Service) classify(op string, err error) error {
	switch {
	case errors.Is(err, parallel.ErrSaturated):
		s.shed.Add(1)
		s.log.Warn("request shed", "op", op, "reason", "worker pool saturated",
			"worker_cap", s.pool.Cap(), "queued", s.pool.Queued())
		return fmt.Errorf("%w: %s shed, worker pool saturated (cap %d, queued %d)",
			ErrOverloaded, op, s.pool.Cap(), s.pool.Queued())
	case errors.Is(err, errBatcherSaturated):
		s.shed.Add(1)
		s.log.Warn("request shed", "op", op, "reason", "inference batcher saturated")
		return fmt.Errorf("%w: %s shed, inference batcher saturated", ErrOverloaded, op)
	case errors.Is(err, context.DeadlineExceeded):
		s.deadlineExceeded.Add(1)
	case errors.Is(err, context.Canceled):
		s.canceled.Add(1)
	}
	return err
}

// Close stops the inference micro-batcher: waiters mid-window complete
// through the single-graph fallback and later registrations run
// unbatched. The service itself stays usable — Close is the
// drain-before-snapshot step of a graceful shutdown. Idempotent.
func (s *Service) Close() {
	s.batch.close()
}

// warmupEntry memoizes one cluster's warm-up dataset (or its
// construction error — deterministic, so retries would fail the same
// way).
type warmupEntry struct {
	once sync.Once
	warm []mono.Sample
	err  error
}

// warmupFor returns the cluster's shared warm-up dataset, constructing
// it on first use. Concurrent registrations for the same cluster block
// on the one construction and then proceed together — which also
// funnels them into the same batcher window right after.
func (s *Service) warmupFor(c int) ([]mono.Sample, error) {
	v, _ := s.warmups.LoadOrStore(c, &warmupEntry{})
	e := v.(*warmupEntry)
	e.once.Do(func() { e.warm, e.err = streamtune.ClusterWarmup(s.pt, c) })
	return e.warm, e.err
}

// PreTrained returns the shared artifact the service serves.
func (s *Service) PreTrained() *streamtune.PreTrained { return s.pt }

// admit validates a registration request. It returns an error wrapping
// ErrInvalidJob for malformed jobs so callers can classify rejects.
func admit(id string, g *dag.Graph) error {
	if id == "" {
		return fmt.Errorf("%w: empty job ID", ErrInvalidJob)
	}
	if g == nil || g.NumOperators() == 0 {
		return fmt.Errorf("%w: empty DAG", ErrInvalidJob)
	}
	for _, op := range g.Operators() {
		if op.Type < 0 || int(op.Type) >= dag.NumOpTypes() {
			return fmt.Errorf("%w: operator %q has unknown type %d", ErrInvalidJob, op.ID, int(op.Type))
		}
	}
	if err := g.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidJob, err)
	}
	return nil
}

// assignCluster resolves the nearest cluster through the shared GED
// cache. Iteration order and tie-breaking match
// PreTrained.AssignCluster exactly, so the result is always identical —
// only the cost differs when the structure repeats. An admission
// counts as a cache hit when every center distance this call looked up
// was already cached.
func (s *Service) assignCluster(g *dag.Graph) (int, float64) {
	best, bestD := -1, math.Inf(1)
	allCached := true
	for c, center := range s.pt.Clusters.Centers {
		d, ok := s.admission.Lookup(g, center)
		if !ok {
			allCached = false
			d = s.admission.Distance(g, center)
		}
		if d < bestD {
			best, bestD = c, d
		}
	}
	if allCached {
		s.admissionHits.Add(1)
	} else {
		s.admissionMisses.Add(1)
	}
	return best, bestD
}

// RegisterResult reports a successful admission.
type RegisterResult struct {
	JobID           string  `json:"job_id"`
	ClusterID       int     `json:"cluster_id"`
	ClusterDistance float64 `json:"cluster_distance"`
	// WarmupSamples is the size of the fine-tuning dataset constructed
	// at admission.
	WarmupSamples int `json:"warmup_samples"`
}

// Register admits a job: validates the DAG, assigns it to its nearest
// cluster via the shared GED cache, builds the warm-up fine-tuning
// dataset from the cluster's history, and starts the tuning process.
// The engine config describes the client's system (flavor, parallelism
// ceiling, bottleneck thresholds); it is used for recommendations and
// label harvesting, never to run anything service-side.
//
// ctx bounds the admission: a canceled or expired context abandons the
// build (including the wait for a worker slot) and a saturated waiting
// room sheds immediately with ErrOverloaded.
func (s *Service) Register(ctx context.Context, id string, g *dag.Graph, engCfg engine.Config) (*RegisterResult, error) {
	defer s.cfg.Metrics.sinceRegister(time.Now())
	ctx, cancel := s.requestCtx(ctx)
	defer cancel()
	if err := admit(id, g); err != nil {
		s.rejected.Add(1)
		s.log.Warn("registration rejected", "job", id, "err", err.Error())
		return nil, err
	}

	// Reserve the ID before the expensive tuner build so concurrent
	// duplicate registrations fail fast instead of both building. The
	// placeholder's phaseBuilding makes it invisible to every other
	// entry point until the build commits.
	sess := &session{id: id, phase: phaseBuilding}
	s.mu.Lock()
	if _, ok := s.sessions[id]; ok {
		s.mu.Unlock()
		s.rejected.Add(1)
		return nil, fmt.Errorf("%w: %q", ErrDuplicateJob, id)
	}
	if s.cfg.MaxSessions > 0 && len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		s.rejected.Add(1)
		return nil, fmt.Errorf("%w (%d)", ErrSessionLimit, s.cfg.MaxSessions)
	}
	s.sessions[id] = sess
	s.mu.Unlock()

	g = g.Clone() // callers keep their copy; the session owns this one

	// Admission runs in three phases. Pooled: cluster assignment plus
	// the (cached) cluster warm-up dataset. Unpooled: the target's
	// inference session through the cross-tenant batcher — the deadline
	// wait must not hold a pool slot, or a busy pool would serialize
	// the very requests the window is trying to coalesce. Pooled again:
	// tuner build, distillation, and the first model fit.
	var c int
	var d float64
	var warm []mono.Sample
	err := s.pool.DoCtx(ctx, func() error {
		c, d = s.assignCluster(g)
		var werr error
		warm, werr = s.warmupFor(c)
		return werr
	})
	var isess *gnn.InferSession
	if err == nil {
		isess, err = s.batch.inferSession(ctx, s.pt.Encoder(c), ged.Fingerprint(g), g)
	}
	if err == nil {
		err = s.pool.DoCtx(ctx, func() error {
			tuner, err := streamtune.NewTunerWithWarmup(s.pt, c, warm)
			if err != nil {
				return err
			}
			tuner.SetInstruments(s.cfg.Metrics.tunerInstruments())
			proc, err := tuner.StartWithSession(isess, engCfg)
			if err != nil {
				return err
			}
			// Pre-fit the prediction model here, at registration, so the
			// first Recommend — like every later one — is a pure binary
			// search over warm state.
			if err := proc.Prefit(); err != nil {
				return err
			}
			sess.mu.Lock()
			defer sess.mu.Unlock()
			sess.clusterID = c
			sess.clusterDist = d
			sess.graph = g
			sess.engCfg = engCfg
			sess.tuner = tuner
			sess.proc = proc
			sess.phase = phaseRecommend
			sess.lease = s.cfg.Clock()
			return nil
		})
	}
	if err != nil {
		s.mu.Lock()
		delete(s.sessions, id)
		s.mu.Unlock()
		s.rejected.Add(1)
		err = fmt.Errorf("service: register %q: %w", id, s.classify("register", err))
		s.log.Warn("registration failed", "job", id, "err", err.Error())
		return nil, err
	}

	s.mu.Lock()
	if s.warmClusters[sess.clusterID] {
		s.encoderWarmHits.Add(1)
	}
	s.warmClusters[sess.clusterID] = true
	s.mu.Unlock()

	sess.recs, sess.bps = s.cfg.Metrics.jobCounters(id)
	s.registered.Add(1)
	s.mutations.Add(1)
	s.log.Info("session registered", "job", id,
		"cluster", sess.clusterID, "distance", sess.clusterDist,
		"warmup_samples", sess.tuner.TrainingSetSize())
	return &RegisterResult{
		JobID:           id,
		ClusterID:       sess.clusterID,
		ClusterDistance: sess.clusterDist,
		WarmupSamples:   sess.tuner.TrainingSetSize(),
	}, nil
}

// lookup fetches a session by ID. Lease renewal happens inside
// Recommend/Observe, under the session lock — merely looking a session
// up (e.g. polling GET /v1/jobs/{id}) does not keep it alive.
func (s *Service) lookup(id string) (*session, error) {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return sess, nil
}

// lookupBusy is lookup plus an in-flight mark taken under the registry
// lock, so EvictIdle — which scans under the same lock — can never
// evict a session between its lookup and its request completing. The
// caller must decrement sess.busy when the request finishes.
func (s *Service) lookupBusy(id string) (*session, error) {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	if ok {
		sess.busy.Add(1)
	}
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return sess, nil
}

// modelWarm reports whether the session's next Step skips the model
// refit — in that case Recommend is a microseconds-scale binary search
// over cached state and bypasses the worker pool entirely, instead of
// queueing behind other tenants' fits and registrations.
func (sess *session) modelWarm() bool {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.phase != phaseBuilding && sess.proc.ModelWarm()
}

// Recommend runs the next recommend step for the job: fit the
// fine-tuned model to the session's training set and compute the
// minimum non-bottleneck parallelism per operator. The client must
// deploy the returned assignment when Deploy is true, measure one
// window, and post it back via Observe. Once the process converges,
// Recommend keeps returning the final recommendation with Done set.
//
// ctx bounds the request: a disconnected client or expired deadline
// abandons the wait for a worker slot (freeing it for live requests)
// and a saturated waiting room sheds with ErrOverloaded.
func (s *Service) Recommend(ctx context.Context, id string) (*Recommendation, error) {
	defer s.cfg.Metrics.sinceRecommend(time.Now())
	ctx, cancel := s.requestCtx(ctx)
	defer cancel()
	sess, err := s.lookupBusy(id)
	if err != nil {
		return nil, err
	}
	defer sess.busy.Add(-1)
	var out *Recommendation
	stepped := false
	run := func() error {
		sess.mu.Lock()
		defer sess.mu.Unlock()
		sess.lease = s.cfg.Clock()
		switch sess.phase {
		case phaseBuilding:
			return fmt.Errorf("%w: %q still registering", ErrUnknownJob, id)
		case phaseMutating:
			return fmt.Errorf("%w: job %q", ErrMutating, id)
		case phaseObserve:
			return fmt.Errorf("%w: job %q iteration %d", ErrAwaitingMetrics, id, sess.proc.Iteration())
		case phaseDone:
			out = &Recommendation{
				JobID:       id,
				Iteration:   sess.proc.Iteration(),
				Parallelism: sess.proc.Result().Parallelism,
				Done:        true,
			}
			return nil
		}
		rec, deploy, done, err := sess.proc.Step()
		if err != nil {
			return err
		}
		stepped = true
		if done {
			sess.phase = phaseDone
			s.completed.Add(1)
			out = &Recommendation{
				JobID:       id,
				Iteration:   sess.proc.Iteration(),
				Parallelism: sess.proc.Result().Parallelism,
				Done:        true,
			}
		} else {
			sess.phase = phaseObserve
			out = &Recommendation{
				JobID:       id,
				Iteration:   sess.proc.Iteration(),
				Parallelism: rec,
				Deploy:      deploy,
			}
		}
		if out.Deploy {
			sess.recs.Inc()
		}
		sess.history = append(sess.history, *out)
		return nil
	}
	// A warm session's Step performs no fit — don't queue microseconds
	// of binary search behind the pool. Cold sessions (first recommend
	// after a restore, or a prior fit error) still pay the pooled path.
	if sess.modelWarm() {
		if err = ctx.Err(); err == nil {
			err = run()
		}
	} else {
		err = s.pool.DoCtx(ctx, run)
	}
	if err != nil {
		return nil, s.classify("recommend", err)
	}
	s.recommendations.Add(1)
	if stepped {
		s.mutations.Add(1)
	}
	return out, nil
}

// Observe absorbs one measured window for the job's outstanding
// recommendation: bottleneck labels are harvested into the session's
// training set and the convergence checks run. It reports whether the
// tuning process completed. ctx bounds the request exactly as in
// Recommend.
func (s *Service) Observe(ctx context.Context, id string, m *engine.JobMetrics) (done bool, err error) {
	defer s.cfg.Metrics.sinceObserve(time.Now())
	ctx, cancel := s.requestCtx(ctx)
	defer cancel()
	if m == nil {
		return false, fmt.Errorf("%w: nil metrics", ErrInvalidJob)
	}
	sess, err := s.lookupBusy(id)
	if err != nil {
		return false, err
	}
	defer sess.busy.Add(-1)
	err = s.pool.DoCtx(ctx, func() error {
		sess.mu.Lock()
		defer sess.mu.Unlock()
		sess.lease = s.cfg.Clock()
		switch sess.phase {
		case phaseBuilding:
			return fmt.Errorf("%w: %q still registering", ErrUnknownJob, id)
		case phaseMutating:
			return fmt.Errorf("%w: job %q", ErrMutating, id)
		case phaseRecommend:
			return fmt.Errorf("%w: job %q", ErrAwaitingRecommend, id)
		case phaseDone:
			return fmt.Errorf("%w: job %q", ErrCompleted, id)
		}
		var stepErr error
		done, stepErr = sess.proc.Observe(m)
		if stepErr != nil {
			return stepErr
		}
		if m.Backpressured {
			sess.bps.Inc()
		}
		if done {
			sess.phase = phaseDone
			s.completed.Add(1)
		} else {
			sess.phase = phaseRecommend
		}
		return nil
	})
	if err != nil {
		return false, s.classify("observe", err)
	}
	s.observations.Add(1)
	s.mutations.Add(1)
	return done, nil
}

// SessionInfo is a point-in-time view of one session.
type SessionInfo struct {
	JobID           string           `json:"job_id"`
	Operators       int              `json:"operators"`
	EngineFlavor    string           `json:"engine_flavor"`
	ClusterID       int              `json:"cluster_id"`
	ClusterDistance float64          `json:"cluster_distance"`
	Phase           string           `json:"phase"`
	Iteration       int              `json:"iteration"`
	Done            bool             `json:"done"`
	TrainingSamples int              `json:"training_samples"`
	LeaseExpires    time.Time        `json:"lease_expires"`
	Parallelism     map[string]int   `json:"parallelism,omitempty"`
	History         []Recommendation `json:"history,omitempty"`
}

// Session returns the current view of a registered job.
func (s *Service) Session(id string) (*SessionInfo, error) {
	sess, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.phase == phaseBuilding {
		return nil, fmt.Errorf("%w: %q still registering", ErrUnknownJob, id)
	}
	info := &SessionInfo{
		JobID:           sess.id,
		Operators:       sess.graph.NumOperators(),
		EngineFlavor:    sess.engCfg.Flavor.String(),
		ClusterID:       sess.clusterID,
		ClusterDistance: sess.clusterDist,
		Phase:           sess.phase.String(),
		Iteration:       sess.proc.Iteration(),
		Done:            sess.phase == phaseDone,
		TrainingSamples: sess.tuner.TrainingSetSize(),
		History:         append([]Recommendation(nil), sess.history...),
	}
	if s.cfg.LeaseTTL > 0 {
		info.LeaseExpires = sess.lease.Add(s.cfg.LeaseTTL)
	}
	if sess.phase == phaseDone {
		info.Parallelism = sess.proc.Result().Parallelism
	} else {
		info.Parallelism = sess.proc.Recommendation()
	}
	return info, nil
}

// Release removes a job's session explicitly. A session still inside
// admission is not releasable — removing it would orphan the build in
// flight — and reads as not-yet-registered, like every other entry
// point. A session mid-mutation is equally unreleasable, but it exists:
// the caller gets ErrMutating and retries once the mutation settles.
func (s *Service) Release(id string) error {
	var mutating bool
	s.mu.Lock()
	sess, ok := s.sessions[id]
	if ok {
		sess.mu.Lock()
		switch sess.phase {
		case phaseBuilding:
			ok = false
		case phaseMutating:
			mutating = true
		default:
			delete(s.sessions, id)
		}
		sess.mu.Unlock()
	}
	s.mu.Unlock()
	if mutating {
		return fmt.Errorf("%w: job %q", ErrMutating, id)
	}
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	s.cfg.Metrics.dropJob(id)
	s.released.Add(1)
	s.mutations.Add(1)
	s.log.Info("session released", "job", id)
	return nil
}

// EvictIdle removes every session whose lease expired and reports how
// many were evicted. A server typically calls it from a janitor ticker.
func (s *Service) EvictIdle() int {
	if s.cfg.LeaseTTL <= 0 {
		return 0
	}
	deadline := s.cfg.Clock().Add(-s.cfg.LeaseTTL)
	var victims []string
	s.mu.Lock()
	for id, sess := range s.sessions {
		// A session with an in-flight request (busy is only ever raised
		// under s.mu, which this scan holds) is live no matter how stale
		// its lease looks: the request may be queued behind the worker
		// pool, and evicting now would orphan its result and drop the
		// session from any snapshot taken before the client retried.
		if sess.busy.Load() > 0 {
			continue
		}
		sess.mu.Lock()
		idle := sess.phase != phaseBuilding && sess.phase != phaseMutating &&
			sess.lease.Before(deadline)
		sess.mu.Unlock()
		if idle {
			victims = append(victims, id)
		}
	}
	for _, id := range victims {
		delete(s.sessions, id)
	}
	s.mu.Unlock()
	for _, id := range victims {
		s.cfg.Metrics.dropJob(id)
		s.log.Info("session evicted", "job", id)
	}
	s.evicted.Add(uint64(len(victims)))
	s.mutations.Add(uint64(len(victims)))
	return len(victims)
}

// JobIDs returns the registered job IDs in sorted order.
func (s *Service) JobIDs() []string {
	s.mu.Lock()
	ids := make([]string, 0, len(s.sessions))
	for id := range s.sessions {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	sort.Strings(ids)
	return ids
}

// JobSummary is one row of the paginated session listing.
type JobSummary struct {
	JobID        string    `json:"job_id"`
	Phase        string    `json:"phase"`
	ClusterID    int       `json:"cluster_id"`
	Iteration    int       `json:"iteration"`
	Done         bool      `json:"done"`
	LeaseExpires time.Time `json:"lease_expires"`
}

// JobList is one page of the session listing.
type JobList struct {
	Jobs []JobSummary `json:"jobs"`
	// Total is the number of listable sessions in the registry at the
	// time of the call, across all pages.
	Total int `json:"total"`
	// NextAfter, when set, is the cursor for the next page: pass it as
	// the after parameter of the next call. Empty on the last page.
	NextAfter string `json:"next_after,omitempty"`
}

// maxListLimit caps one listing page.
const maxListLimit = 1000

// ListJobs returns one page of registered sessions in sorted job-ID
// order, starting strictly after the given cursor (empty means the
// beginning). Limits outside (0, maxListLimit] default to 100. Sessions
// still inside admission are invisible, exactly as in every other entry
// point; a session mid-mutation lists under its pre-mutation phase.
func (s *Service) ListJobs(after string, limit int) *JobList {
	if limit <= 0 || limit > maxListLimit {
		limit = 100
	}
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].id < sessions[j].id })

	list := &JobList{Jobs: []JobSummary{}}
	for _, sess := range sessions {
		sess.mu.Lock()
		if sess.phase == phaseBuilding {
			sess.mu.Unlock()
			continue
		}
		list.Total++
		if sess.id <= after || len(list.Jobs) >= limit {
			if sess.id > after && len(list.Jobs) >= limit && list.NextAfter == "" {
				list.NextAfter = list.Jobs[len(list.Jobs)-1].JobID
			}
			sess.mu.Unlock()
			continue
		}
		phase := sess.phase
		if phase == phaseMutating {
			phase = sess.prevPhase
		}
		row := JobSummary{
			JobID:     sess.id,
			Phase:     phase.String(),
			ClusterID: sess.clusterID,
			Iteration: sess.proc.Iteration(),
			Done:      phase == phaseDone,
		}
		if s.cfg.LeaseTTL > 0 {
			row.LeaseExpires = sess.lease.Add(s.cfg.LeaseTTL)
		}
		list.Jobs = append(list.Jobs, row)
		sess.mu.Unlock()
	}
	return list
}

// Stats snapshots the service counters, grouped by subsystem.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	active := len(s.sessions)
	s.mu.Unlock()
	_, flushes, batched, single := s.batch.stats()
	return Stats{
		SchemaVersion: StatsSchemaVersion,
		Sessions: SessionStats{
			Active:            active,
			Registered:        s.registered.Load(),
			Rejected:          s.rejected.Load(),
			Released:          s.released.Load(),
			Evicted:           s.evicted.Load(),
			Completed:         s.completed.Load(),
			Recommendations:   s.recommendations.Load(),
			Observations:      s.observations.Load(),
			TopologyMutations: s.topoMutations.Load(),
			MutationsRejected: s.topoRejected.Load(),
		},
		Admission: AdmissionStats{
			CacheHits:       s.admissionHits.Load(),
			CacheMisses:     s.admissionMisses.Load(),
			CacheSize:       s.admission.Len(),
			CacheCap:        s.admission.Cap(),
			CacheResets:     s.admission.Resets(),
			EncoderWarmHits: s.encoderWarmHits.Load(),
		},
		Batching: BatchingStats{
			Flushes:           flushes,
			BatchedSessions:   batched,
			UnbatchedSessions: single,
		},
		Overload: OverloadStats{
			WorkersInFlight:  s.pool.InFlight(),
			WorkerCap:        s.pool.Cap(),
			WorkersQueued:    s.pool.Queued(),
			Shed:             s.shed.Load(),
			DeadlineExceeded: s.deadlineExceeded.Load(),
			Canceled:         s.canceled.Load(),
		},
		Checkpoint: CheckpointStats{
			Mutations: s.mutations.Load(),
			Written:   s.checkpointsWritten.Load(),
			Failures:  s.checkpointFailures.Load(),
			LastBytes: s.checkpointLastBytes.Load(),
			LastSeq:   s.checkpointLastSeq.Load(),
		},
	}
}

// BatchOccupancy returns the histogram of executed inference batch
// sizes (size -> count), nil when batching is disabled.
func (s *Service) BatchOccupancy() map[int]uint64 {
	occ, _, _, _ := s.batch.stats()
	return occ
}

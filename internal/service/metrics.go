package service

import (
	"sync/atomic"
	"time"

	"github.com/streamtune/streamtune/internal/streamtune"
	"github.com/streamtune/streamtune/internal/telemetry"
)

// Metrics bundles the service's telemetry instruments over one
// registry, exposed in Prometheus text format at GET /metrics. Create
// one with NewMetrics and pass it in Config; a nil Metrics disables
// every instrument (all hooks are nil-safe no-ops), which is the
// provably inert path — recommendations are differential-tested
// bit-identical with telemetry enabled vs disabled.
//
// Two instrument styles coexist:
//
//   - Hot-path instruments (latency histograms, batch occupancy,
//     per-tenant reconfiguration/backpressure counters, fit/distill
//     counters) are updated inline by the serving path: each update is
//     a handful of atomic operations and zero allocations
//     (internal/telemetry's AllocsPerRun tests pin this).
//   - The Stats counter families are exported at scrape time by reading
//     the service's existing atomics, so mirroring them into /metrics
//     costs the hot path nothing at all.
//
// One Metrics serves one service at a time: New binds the service at
// construction, and a restored service (same Config) rebinds to itself,
// so checkpoint recovery keeps the same registry without re-registering
// families.
type Metrics struct {
	reg *telemetry.Registry

	// Serving-path latency histograms, one child per operation,
	// resolved once here so the request path never touches the vec map.
	registerSeconds  *telemetry.Histogram
	recommendSeconds *telemetry.Histogram
	observeSeconds   *telemetry.Histogram
	mutateSeconds    *telemetry.Histogram

	// checkpointSeconds tracks full checkpoint writes (snapshot + fsync
	// + rename); batchOccupancy the executed inference batch sizes.
	checkpointSeconds *telemetry.Histogram
	batchOccupancy    *telemetry.Histogram

	// Tuning-core counters: model refits and distillation passes across
	// all tenants, plus per-tenant reconfiguration and backpressure
	// counters (children resolved per session at admission, deleted on
	// release/eviction so family cardinality tracks live sessions).
	tunerFits     *telemetry.Counter
	tunerDistills *telemetry.Counter
	reconfigs     *telemetry.CounterVec
	backpressure  *telemetry.CounterVec

	// svc is the bound service the scrape-time families read; rebound by
	// New so a restored service takes over the registry.
	svc atomic.Pointer[Service]
}

// NewMetrics registers the service's metric families on reg (a fresh
// registry per service lineage — families are registered exactly once)
// and returns the bundle to pass in Config.Metrics.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	m := &Metrics{reg: reg}

	lat := reg.HistogramVec("streamtune_request_duration_seconds",
		"Serving-path latency by operation, measured inside the service (includes worker-pool queueing).",
		telemetry.LatencyBuckets, "op")
	m.registerSeconds = lat.With("register")
	m.recommendSeconds = lat.With("recommend")
	m.observeSeconds = lat.With("observe")
	m.mutateSeconds = lat.With("mutate")

	m.checkpointSeconds = reg.Histogram("streamtune_checkpoint_duration_seconds",
		"Checkpoint write latency: registry snapshot, atomic write, rotation.", telemetry.LatencyBuckets)
	m.batchOccupancy = reg.Histogram("streamtune_batch_occupancy",
		"Executed inference batch sizes (sessions coalesced per flush).", telemetry.SizeBuckets)

	m.tunerFits = reg.Counter("streamtune_tuner_fits_total",
		"Prediction-model refits across all tenants (fit deduplication makes these sparse).")
	m.tunerDistills = reg.Counter("streamtune_tuner_distills_total",
		"Head-distillation passes across all tenants.")
	m.reconfigs = reg.CounterVec("streamtune_tuner_reconfigurations_total",
		"Deployed reconfigurations per tenant.", "job")
	m.backpressure = reg.CounterVec("streamtune_backpressure_windows_total",
		"Measured windows reporting job-level backpressure, per tenant.", "job")

	// --- Scrape-time mirrors of the Stats counters ---
	counter := func(name, help string, f func(*Service) float64) {
		reg.CounterFunc(name, help, func() float64 {
			if s := m.svc.Load(); s != nil {
				return f(s)
			}
			return 0
		})
	}
	gauge := func(name, help string, f func(*Service) float64) {
		reg.GaugeFunc(name, help, func() float64 {
			if s := m.svc.Load(); s != nil {
				return f(s)
			}
			return 0
		})
	}

	gauge("streamtune_ready", "1 when the service is ready to serve (restore finished, not draining).",
		func(s *Service) float64 {
			if s.Ready() {
				return 1
			}
			return 0
		})
	gauge("streamtune_sessions_active", "Sessions currently registered.",
		func(s *Service) float64 {
			s.mu.Lock()
			n := len(s.sessions)
			s.mu.Unlock()
			return float64(n)
		})
	counter("streamtune_sessions_registered_total", "Successful admissions.",
		func(s *Service) float64 { return float64(s.registered.Load()) })
	counter("streamtune_sessions_rejected_total", "Rejected registrations.",
		func(s *Service) float64 { return float64(s.rejected.Load()) })
	counter("streamtune_sessions_released_total", "Explicit session releases.",
		func(s *Service) float64 { return float64(s.released.Load()) })
	counter("streamtune_sessions_evicted_total", "Idle-lease evictions.",
		func(s *Service) float64 { return float64(s.evicted.Load()) })
	counter("streamtune_sessions_completed_total", "Tuning processes converged.",
		func(s *Service) float64 { return float64(s.completed.Load()) })
	counter("streamtune_recommendations_total", "Recommend calls served.",
		func(s *Service) float64 { return float64(s.recommendations.Load()) })
	counter("streamtune_observations_total", "Measured windows absorbed.",
		func(s *Service) float64 { return float64(s.observations.Load()) })
	counter("streamtune_topology_mutations_total", "Committed mid-stream DAG mutations.",
		func(s *Service) float64 { return float64(s.topoMutations.Load()) })
	counter("streamtune_topology_mutations_rejected_total", "Rejected (rolled back) DAG mutations.",
		func(s *Service) float64 { return float64(s.topoRejected.Load()) })

	counter("streamtune_admission_cache_hits_total", "Cluster assignments fully resolved from the shared GED cache.",
		func(s *Service) float64 { return float64(s.admissionHits.Load()) })
	counter("streamtune_admission_cache_misses_total", "Cluster assignments that computed at least one exact GED.",
		func(s *Service) float64 { return float64(s.admissionMisses.Load()) })
	counter("streamtune_admission_cache_resets_total", "Admission-cache epoch resets at the capacity bound.",
		func(s *Service) float64 { return float64(s.admission.Resets()) })
	gauge("streamtune_admission_cache_size", "Distance pairs held by the admission cache.",
		func(s *Service) float64 { return float64(s.admission.Len()) })
	counter("streamtune_encoder_warm_hits_total", "Registrations landing on an already-warm cluster encoder.",
		func(s *Service) float64 { return float64(s.encoderWarmHits.Load()) })

	counter("streamtune_batch_flushes_total", "Executed inference batches (any size).",
		func(s *Service) float64 { f, _, _ := s.batch.counts(); return float64(f) })
	counter("streamtune_batched_sessions_total", "Sessions served from multi-request inference batches.",
		func(s *Service) float64 { _, b, _ := s.batch.counts(); return float64(b) })
	counter("streamtune_unbatched_sessions_total", "Sessions served from lone flushes or fallbacks.",
		func(s *Service) float64 { _, _, u := s.batch.counts(); return float64(u) })

	gauge("streamtune_workers_in_flight", "Worker-pool tasks executing right now.",
		func(s *Service) float64 { return float64(s.pool.InFlight()) })
	gauge("streamtune_worker_cap", "Worker-pool size.",
		func(s *Service) float64 { return float64(s.pool.Cap()) })
	gauge("streamtune_workers_queued", "Admitted requests waiting for a worker slot (queue depth).",
		func(s *Service) float64 { return float64(s.pool.Queued()) })
	counter("streamtune_shed_total", "Requests shed with 503 (waiting room or batcher saturated).",
		func(s *Service) float64 { return float64(s.shed.Load()) })
	counter("streamtune_deadline_exceeded_total", "Requests abandoned to their deadline.",
		func(s *Service) float64 { return float64(s.deadlineExceeded.Load()) })
	counter("streamtune_request_canceled_total", "Requests abandoned by their client.",
		func(s *Service) float64 { return float64(s.canceled.Load()) })

	counter("streamtune_registry_mutations_total", "Registry state changes (the checkpointer's dirtiness signal).",
		func(s *Service) float64 { return float64(s.mutations.Load()) })
	counter("streamtune_checkpoints_written_total", "Successful checkpoint writes.",
		func(s *Service) float64 { return float64(s.checkpointsWritten.Load()) })
	counter("streamtune_checkpoint_failures_total", "Failed checkpoint attempts.",
		func(s *Service) float64 { return float64(s.checkpointFailures.Load()) })
	gauge("streamtune_checkpoint_last_bytes", "Size of the newest checkpoint.",
		func(s *Service) float64 { return float64(s.checkpointLastBytes.Load()) })
	gauge("streamtune_checkpoint_last_seq", "Sequence number of the newest checkpoint.",
		func(s *Service) float64 { return float64(s.checkpointLastSeq.Load()) })

	return m
}

// Registry returns the underlying registry (for the /metrics handler
// and for embedding extra families alongside the service's).
func (m *Metrics) Registry() *telemetry.Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// bind points the scrape-time families at svc. Called by New; the last
// bound service wins, which is exactly what checkpoint recovery wants.
func (m *Metrics) bind(svc *Service) {
	if m != nil {
		m.svc.Store(svc)
	}
}

// sinceRegister (and siblings) observe one completed operation's
// latency; all are nil-safe so call sites need no telemetry branches:
//
//	defer s.cfg.Metrics.sinceRegister(time.Now())
func (m *Metrics) sinceRegister(t0 time.Time) {
	if m != nil {
		m.registerSeconds.Observe(time.Since(t0).Seconds())
	}
}

func (m *Metrics) sinceRecommend(t0 time.Time) {
	if m != nil {
		m.recommendSeconds.Observe(time.Since(t0).Seconds())
	}
}

func (m *Metrics) sinceObserve(t0 time.Time) {
	if m != nil {
		m.observeSeconds.Observe(time.Since(t0).Seconds())
	}
}

func (m *Metrics) sinceMutate(t0 time.Time) {
	if m != nil {
		m.mutateSeconds.Observe(time.Since(t0).Seconds())
	}
}

func (m *Metrics) sinceCheckpoint(t0 time.Time) {
	if m != nil {
		m.checkpointSeconds.Observe(time.Since(t0).Seconds())
	}
}

// jobCounters resolves the per-tenant counters for one session (nil,
// nil when telemetry is disabled).
func (m *Metrics) jobCounters(id string) (reconfigs, backpressure *telemetry.Counter) {
	if m == nil {
		return nil, nil
	}
	return m.reconfigs.With(id), m.backpressure.With(id)
}

// dropJob removes a released or evicted session's per-tenant counters,
// bounding label cardinality to live sessions.
func (m *Metrics) dropJob(id string) {
	if m == nil {
		return
	}
	m.reconfigs.Delete(id)
	m.backpressure.Delete(id)
}

// tunerInstruments builds the fit/distill hooks handed to every tuner
// the service constructs (zero value when telemetry is disabled — the
// hooks stay nil and the tuner skips them).
func (m *Metrics) tunerInstruments() streamtune.Instruments {
	if m == nil {
		return streamtune.Instruments{}
	}
	return streamtune.Instruments{OnFit: m.tunerFits.Inc, OnDistill: m.tunerDistills.Inc}
}

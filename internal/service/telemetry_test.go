package service

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/streamtune/streamtune/internal/dagspec"
	"github.com/streamtune/streamtune/internal/logbuffer"
	"github.com/streamtune/streamtune/internal/nexmark"
	"github.com/streamtune/streamtune/internal/telemetry"
)

// scrape fetches /metrics and parses every sample line into a
// name{labels} -> value map (HELP/TYPE comments skipped).
func scrape(t *testing.T, client *http.Client, url string) map[string]float64 {
	t.Helper()
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	return out
}

// TestMetricsEndToEnd drives register -> recommend -> observe -> mutate
// over HTTP against an instrumented service and scrapes /metrics,
// asserting the advertised families exist with the right label sets
// and that counters are monotone across scrapes.
func TestMetricsEndToEnd(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Metrics = NewMetrics(telemetry.NewRegistry())
	s := newTestService(t, cfg)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	client := srv.Client()
	engCfg := testEngineConfig()

	g := targetGraph(t, nexmark.Q5, 4)
	if status := httpJSON(t, client, http.MethodPost, srv.URL+"/v1/jobs",
		RegisterRequest{JobID: "obs-q5", Graph: g, Engine: &engCfg}, nil); status != http.StatusOK {
		t.Fatalf("register status = %d", status)
	}
	driveJob(t, s, "obs-q5", g, engCfg)

	first := scrape(t, client, srv.URL)

	for _, key := range []string{
		`streamtune_ready`,
		`streamtune_sessions_active`,
		`streamtune_sessions_registered_total`,
		`streamtune_sessions_rejected_total`,
		`streamtune_recommendations_total`,
		`streamtune_observations_total`,
		`streamtune_admission_cache_hits_total`,
		`streamtune_admission_cache_misses_total`,
		`streamtune_encoder_warm_hits_total`,
		`streamtune_workers_in_flight`,
		`streamtune_worker_cap`,
		`streamtune_shed_total`,
		`streamtune_checkpoints_written_total`,
		`streamtune_tuner_fits_total`,
		`streamtune_tuner_distills_total`,
		`streamtune_request_duration_seconds_count{op="register"}`,
		`streamtune_request_duration_seconds_count{op="recommend"}`,
		`streamtune_request_duration_seconds_count{op="observe"}`,
		`streamtune_request_duration_seconds_sum{op="recommend"}`,
		`streamtune_tuner_reconfigurations_total{job="obs-q5"}`,
		`streamtune_backpressure_windows_total{job="obs-q5"}`,
	} {
		if _, ok := first[key]; !ok {
			t.Errorf("scrape missing %s", key)
		}
	}
	// Histogram families expose cumulative buckets ending in +Inf.
	if _, ok := first[`streamtune_request_duration_seconds_bucket{op="recommend",le="+Inf"}`]; !ok {
		t.Error(`scrape missing recommend +Inf bucket`)
	}
	if first[`streamtune_ready`] != 1 {
		t.Errorf("streamtune_ready = %v, want 1", first[`streamtune_ready`])
	}
	if first[`streamtune_sessions_registered_total`] != 1 {
		t.Errorf("registered_total = %v, want 1", first[`streamtune_sessions_registered_total`])
	}
	if n := first[`streamtune_request_duration_seconds_count{op="recommend"}`]; n < 1 {
		t.Errorf("recommend duration count = %v, want >= 1", n)
	}
	if n := first[`streamtune_tuner_fits_total`]; n < 1 {
		t.Errorf("tuner_fits_total = %v, want >= 1", n)
	}
	if n := first[`streamtune_tuner_reconfigurations_total{job="obs-q5"}`]; n < 1 {
		t.Errorf("job reconfigurations = %v, want >= 1", n)
	}

	// A topology mutation and a second scrape: every *_total stays
	// monotone, and the mutation op appears in the duration histogram.
	mut, err := dagspec.ParseMutation([]byte(prefilterMutation))
	if err != nil {
		t.Fatal(err)
	}
	var mres MutateResult
	if status := httpJSON(t, client, http.MethodPatch, srv.URL+"/v1/jobs/obs-q5/topology",
		json.RawMessage(prefilterMutation), &mres); status != http.StatusOK {
		t.Fatalf("mutate status = %d", status)
	}
	_ = mut

	second := scrape(t, client, srv.URL)
	for key, v := range first {
		if !strings.Contains(key, "_total") && !strings.Contains(key, "_count") &&
			!strings.Contains(key, "_bucket") && !strings.Contains(key, "_sum") {
			continue
		}
		if second[key] < v {
			t.Errorf("counter %s went backwards: %v -> %v", key, v, second[key])
		}
	}
	if n := second[`streamtune_topology_mutations_total`]; n != 1 {
		t.Errorf("topology_mutations_total = %v, want 1", n)
	}
	if n := second[`streamtune_request_duration_seconds_count{op="mutate"}`]; n != 1 {
		t.Errorf("mutate duration count = %v, want 1", n)
	}

	// Family naming hygiene: every sample matches the Prometheus
	// sample grammar and carries the streamtune_ prefix.
	nameRe := regexp.MustCompile(`^streamtune_[a-z0-9_]+(\{[^}]*\})?$`)
	for key := range second {
		if !nameRe.MatchString(key) {
			t.Errorf("sample %q violates naming convention", key)
		}
	}
}

// TestTelemetryInert proves instrumentation changes no tuning decision:
// the same job driven on an instrumented and a bare service produces
// bit-identical recommendation sequences and snapshots.
func TestTelemetryInert(t *testing.T) {
	engCfg := testEngineConfig()
	// Freeze the lease clock: snapshots embed lease timestamps, and the
	// comparison must only see tuning-state differences.
	epoch := time.Unix(1700000000, 0).UTC()
	clock := func() time.Time { return epoch }
	run := func(cfg Config) (map[string]int, []byte) {
		cfg.Clock = clock
		s := newTestService(t, cfg)
		g := targetGraph(t, nexmark.Q5, 6)
		if _, err := s.Register(context.Background(), "diff", g, engCfg); err != nil {
			t.Fatal(err)
		}
		final := driveJob(t, s, "diff", g, engCfg)
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return final, snap
	}

	instr := DefaultConfig()
	instr.Metrics = NewMetrics(telemetry.NewRegistry())
	instr.Logs = logbuffer.New(256)
	instr.Logger = slog.New(instr.Logs.Handler(slog.LevelDebug))

	baseFinal, baseSnap := run(DefaultConfig())
	instrFinal, instrSnap := run(instr)

	if !reflect.DeepEqual(baseFinal, instrFinal) {
		t.Errorf("instrumentation changed the final recommendation:\nbare  %v\ninstr %v",
			baseFinal, instrFinal)
	}
	// RecommendTime is a wall-clock accumulator — it differs between
	// any two runs, instrumented or not — and the envelope checksum
	// covers it. Normalize both before the bit comparison; everything
	// else (training sets, embeddings, phases, leases) must match.
	normalize := func(snap []byte) string {
		s := regexp.MustCompile(`"RecommendTime": \d+`).ReplaceAllString(string(snap), `"RecommendTime": 0`)
		return regexp.MustCompile(`"checksum": \d+`).ReplaceAllString(s, `"checksum": 0`)
	}
	if normalize(baseSnap) != normalize(instrSnap) {
		t.Error("instrumentation changed the session snapshot bytes")
	}
	if instr.Logs.Len() == 0 {
		t.Error("instrumented run appended no log entries")
	}
}

// TestMetricsHelpersZeroAlloc pins the service-side hot-path helpers —
// the deferred latency observations and per-job counters — at zero
// heap allocations, both enabled and disabled (nil Metrics).
func TestMetricsHelpersZeroAlloc(t *testing.T) {
	m := NewMetrics(telemetry.NewRegistry())
	recs, bps := m.jobCounters("alloc-job")
	t0 := time.Now()
	cases := map[string]func(){
		"sinceRecommend": func() { m.sinceRecommend(t0) },
		"sinceObserve":   func() { m.sinceObserve(t0) },
		"jobCounterInc":  func() { recs.Inc(); bps.Inc() },
		"nilMetrics":     func() { (*Metrics)(nil).sinceRecommend(t0) },
	}
	for name, fn := range cases {
		if n := testing.AllocsPerRun(200, fn); n != 0 {
			t.Errorf("%s allocates %v per call, want 0", name, n)
		}
	}
}

// TestStatsV3Shape locks the /v1/stats document: schema_version 3 with
// the five grouped sections and no observer section, decoded generically
// so a renamed or flattened field fails loudly.
func TestStatsV3Shape(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Metrics = NewMetrics(telemetry.NewRegistry())
	s := newTestService(t, cfg)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	g := targetGraph(t, nexmark.Q3, 3)
	if _, err := s.Register(context.Background(), "shape", g, testEngineConfig()); err != nil {
		t.Fatal(err)
	}

	var doc map[string]json.RawMessage
	if status := httpJSON(t, srv.Client(), http.MethodGet, srv.URL+"/v1/stats", nil, &doc); status != http.StatusOK {
		t.Fatalf("stats status = %d", status)
	}
	var version int
	if err := json.Unmarshal(doc["schema_version"], &version); err != nil || version != 3 {
		t.Fatalf("schema_version = %s (err %v), want 3", doc["schema_version"], err)
	}
	if _, ok := doc["observer"]; ok {
		t.Error("stats document still carries the observer section")
	}
	for _, section := range []string{"sessions", "admission", "batching", "overload", "checkpoint"} {
		raw, ok := doc[section]
		if !ok {
			t.Errorf("stats document missing section %q", section)
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Errorf("section %q is not an object: %v", section, err)
		}
	}
	var sessions map[string]any
	if err := json.Unmarshal(doc["sessions"], &sessions); err != nil {
		t.Fatal(err)
	}
	if sessions["active"] != float64(1) || sessions["registered"] != float64(1) {
		t.Errorf("sessions section = %v, want active=1 registered=1", sessions)
	}
}

// TestHealthAndReadiness covers the probe endpoints: /healthz is
// always 200, /readyz tracks SetReady and serves the uniform error
// envelope with code not_ready while draining.
func TestHealthAndReadiness(t *testing.T) {
	s := newTestService(t, DefaultConfig())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	client := srv.Client()

	var health HealthResponse
	if status := httpJSON(t, client, http.MethodGet, srv.URL+"/healthz", nil, &health); status != http.StatusOK {
		t.Fatalf("healthz status = %d", status)
	}
	if health.Status != "ok" {
		t.Errorf("healthz status field = %q, want ok", health.Status)
	}
	var ready HealthResponse
	if status := httpJSON(t, client, http.MethodGet, srv.URL+"/readyz", nil, &ready); status != http.StatusOK {
		t.Fatalf("readyz status = %d", status)
	}
	if ready.Status != "ready" {
		t.Errorf("readyz status field = %q, want ready", ready.Status)
	}

	s.SetReady(false)
	var envelope errorResponse
	if status := httpJSON(t, client, http.MethodGet, srv.URL+"/readyz", nil, &envelope); status != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz status = %d, want 503", status)
	}
	if envelope.Error.Code != "not_ready" {
		t.Errorf("draining readyz code = %q, want not_ready", envelope.Error.Code)
	}
	// Liveness is unaffected by draining.
	if status := httpJSON(t, client, http.MethodGet, srv.URL+"/healthz", nil, nil); status != http.StatusOK {
		t.Fatalf("draining healthz status = %d, want 200", status)
	}
	s.SetReady(true)
	if status := httpJSON(t, client, http.MethodGet, srv.URL+"/readyz", nil, nil); status != http.StatusOK {
		t.Fatalf("restored readyz status = %d, want 200", status)
	}
}

// TestLogsEndpoint exercises /v1/logs limit and level filtering plus
// the telemetry_disabled envelope when no ring buffer is attached.
func TestLogsEndpoint(t *testing.T) {
	ring := logbuffer.New(64)
	cfg := DefaultConfig()
	cfg.Logs = ring
	cfg.Logger = slog.New(ring.Handler(slog.LevelDebug))
	s := newTestService(t, cfg)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	client := srv.Client()

	g := targetGraph(t, nexmark.Q2, 2)
	if _, err := s.Register(context.Background(), "logs-job", g, testEngineConfig()); err != nil {
		t.Fatal(err)
	}
	s.log.Warn("synthetic warning", "n", 1)

	var all LogsResponse
	if status := httpJSON(t, client, http.MethodGet, srv.URL+"/v1/logs", nil, &all); status != http.StatusOK {
		t.Fatalf("logs status = %d", status)
	}
	if len(all.Entries) == 0 {
		t.Fatal("no log entries returned")
	}
	if all.Capacity != 64 {
		t.Errorf("capacity = %d, want 64", all.Capacity)
	}
	foundRegister := false
	for _, e := range all.Entries {
		if e.Msg == "session registered" {
			foundRegister = true
			if e.Attrs["job"] != "logs-job" {
				t.Errorf("register entry attrs = %v, want job=logs-job", e.Attrs)
			}
		}
	}
	if !foundRegister {
		t.Error(`no "session registered" entry in /v1/logs`)
	}

	var warns LogsResponse
	if status := httpJSON(t, client, http.MethodGet, srv.URL+"/v1/logs?level=warn", nil, &warns); status != http.StatusOK {
		t.Fatalf("level-filtered logs status = %d", status)
	}
	for _, e := range warns.Entries {
		if e.Level != "WARN" && e.Level != "ERROR" {
			t.Errorf("level=warn returned %s entry %q", e.Level, e.Msg)
		}
	}
	var limited LogsResponse
	if status := httpJSON(t, client, http.MethodGet, srv.URL+"/v1/logs?limit=1", nil, &limited); status != http.StatusOK {
		t.Fatalf("limited logs status = %d", status)
	}
	if len(limited.Entries) != 1 {
		t.Errorf("limit=1 returned %d entries", len(limited.Entries))
	}
	var envelope errorResponse
	if status := httpJSON(t, client, http.MethodGet, srv.URL+"/v1/logs?limit=bogus", nil, &envelope); status != http.StatusBadRequest {
		t.Fatalf("bad limit status = %d, want 400", status)
	}
	if envelope.Error.Code != "invalid_job" {
		t.Errorf("bad limit code = %q, want invalid_job", envelope.Error.Code)
	}

	// No ring buffer attached -> 404 telemetry_disabled; same for
	// /metrics with no registry.
	bare := newTestService(t, DefaultConfig())
	bareSrv := httptest.NewServer(bare.Handler())
	defer bareSrv.Close()
	for _, path := range []string{"/v1/logs", "/metrics"} {
		var env errorResponse
		if status := httpJSON(t, bareSrv.Client(), http.MethodGet, bareSrv.URL+path, nil, &env); status != http.StatusNotFound {
			t.Fatalf("bare %s status = %d, want 404", path, status)
		}
		if env.Error.Code != "telemetry_disabled" {
			t.Errorf("bare %s code = %q, want telemetry_disabled", path, env.Error.Code)
		}
	}
}

// TestOpsHandler checks the standalone ops surface serves exactly the
// operational endpoints and none of the tenant API.
func TestOpsHandler(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Metrics = NewMetrics(telemetry.NewRegistry())
	cfg.Logs = logbuffer.New(16)
	s := newTestService(t, cfg)
	srv := httptest.NewServer(s.OpsHandler())
	defer srv.Close()
	client := srv.Client()

	for _, path := range []string{"/metrics", "/healthz", "/readyz", "/v1/logs", "/v1/stats"} {
		resp, err := client.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("ops %s status = %d, want 200", path, resp.StatusCode)
		}
	}
	// The tenant API must not leak onto the ops port.
	resp, err := client.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("ops POST /v1/jobs status = %d, want 404", resp.StatusCode)
	}
}

// TestRequestQuantile sanity-checks the benchmark-facing summary
// accessors against a scrape of the same histogram.
func TestRequestQuantile(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Metrics = NewMetrics(telemetry.NewRegistry())
	s := newTestService(t, cfg)
	g := targetGraph(t, nexmark.Q3, 3)
	if _, err := s.Register(context.Background(), "q", g, testEngineConfig()); err != nil {
		t.Fatal(err)
	}
	if n := cfg.Metrics.RequestCount("register"); n != 1 {
		t.Fatalf("RequestCount(register) = %d, want 1", n)
	}
	p99 := cfg.Metrics.RequestQuantile("register", 0.99)
	if p99 <= 0 {
		t.Errorf("RequestQuantile(register, 0.99) = %v, want > 0", p99)
	}
	if n := cfg.Metrics.RequestCount("no-such-op"); n != 0 {
		t.Errorf("RequestCount(no-such-op) = %d, want 0", n)
	}
	if q := cfg.Metrics.RequestQuantile("no-such-op", 0.5); q != 0 {
		t.Errorf("RequestQuantile(no-such-op) = %v, want 0", q)
	}
}

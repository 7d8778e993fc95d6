package main

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"github.com/streamtune/streamtune/internal/experiments"
	"github.com/streamtune/streamtune/internal/streamtune"
)

// quickArtifact pre-trains once at experiments.Quick() scale for both
// tests; the artifact is read-only.
var quickArtifact = sync.OnceValues(func() (*streamtune.PreTrained, error) {
	return pretrain(quickScale())
})

func quickScale() experiments.Options {
	opts := experiments.Quick()
	opts.Seed = artifactSeed
	return opts
}

// quickRecording brings a fresh service up over pt and records the
// first n tasks of the seed's script against it.
func quickRecording(t *testing.T, h *harness, workloads []experiments.Workload, seed int64, n int) *recording {
	t.Helper()
	rec, err := recordHTTP(h, drawTasks(workloads, seed)[:n], 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestReplaySelfCheck is the premise of the whole benchmark at
// experiments.Quick() scale: the service is bit-deterministic, so two
// independent recordings of a script are byte-identical conversations, a
// recording replays against a fresh service without a single mismatch,
// every final recommendation equals a sequential caller-owned
// Tuner.Tune run, and a damaged recording is caught.
func TestReplaySelfCheck(t *testing.T) {
	opts := quickScale()
	pt, err := quickArtifact()
	if err != nil {
		t.Fatal(err)
	}
	workloads, err := experiments.FlinkWorkloads(opts)
	if err != nil {
		t.Fatal(err)
	}
	const seed, tasks = 7, 6

	fresh := func() *harness {
		h, err := newHarness(pt, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(h.close)
		return h
	}
	first := quickRecording(t, fresh(), workloads, seed, tasks)
	second := quickRecording(t, fresh(), workloads, seed, tasks)
	if !reflect.DeepEqual(first.units, second.units) {
		t.Fatal("two independent recordings of the same script differ")
	}

	h := fresh()
	c := newHTTPClient(h.base)
	defer c.close()
	r, err := replayRound(first.units, []*player{{c: c}})
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("replay against a fresh service: %d of %d responses differ from the recording", r.failed, len(first.units))
	}

	picks := referencePicks(drawTasks(workloads, seed)[:tasks], true, seed)
	failed, err := checkReferences(pt, first, engineConfig(opts), picks)
	if err != nil {
		t.Fatal(err)
	}
	if failed != 0 {
		t.Fatalf("%d of %d final recommendations differ from the sequential Tuner.Tune reference", failed, len(picks))
	}

	u := &first.units[len(first.units)/2]
	u.want = append([]byte("x"), u.want...)
	if r, err := replayRound(first.units, []*player{{c: c}}); err != nil || r.failed != 1 {
		t.Fatalf("a damaged recording replayed with %d mismatches (err %v), want exactly 1", r.failed, err)
	}
}

// TestRateTraceReplay is the same premise for the tuner without a
// service: the taped system answers a fresh tuner exactly as the live
// engine answered the recording's.
func TestRateTraceReplay(t *testing.T) {
	opts := quickScale()
	pt, err := quickArtifact()
	if err != nil {
		t.Fatal(err)
	}
	workloads, err := experiments.FlinkWorkloads(opts)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := traceCells(workloads, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		cells[i].trace.Multipliers = cells[i].trace.Multipliers[:2]
	}
	cfg := engineConfig(opts)
	rec, err := recordTraces(pt, cells, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One replay proves both halves: with one recorded outcome damaged,
	// exactly that call must diverge and every other must match.
	for k := range rec.steps[1][1].final {
		rec.steps[1][1].final[k]++
		break
	}
	if r, err := replayTraces(pt, rec, cfg); err != nil || r.failed != 1 {
		t.Fatalf("replay of a recording with one damaged outcome: %d of %d Tune calls diverged (err %v), want exactly 1", r.failed, len(rec.units), err)
	}
}

// TestSerialisedServiceMovesFleetOnly injects the regression fleet is
// there to catch — one lock around every request, so that the service
// does the work of two clients one after the other — and requires
// fleet's throughput to fall while a single client, who never waits for
// anybody, reads what it read before.
func TestSerialisedServiceMovesFleetOnly(t *testing.T) {
	opts := quickScale()
	pt, err := quickArtifact()
	if err != nil {
		t.Fatal(err)
	}
	workloads, err := experiments.FlinkWorkloads(opts)
	if err != nil {
		t.Fatal(err)
	}
	h, err := newHarness(pt, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	rec, err := recordHTTP(h, drawTasks(workloads[:4], 11), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	handler := h.svc.Handler()
	locked := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		handler.ServeHTTP(w, r)
	}))
	defer locked.Close()

	// tasksPerSecond replays the recording for a few rounds against base
	// with that many clients, as a run does. It also returns what a sum
	// of unit minima would have read.
	tasksPerSecond := func(base string, clients int) (kept, minima float64) {
		players := make([]*player, clients)
		for i := range players {
			c := newHTTPClient(base)
			defer c.close()
			players[i] = &player{c: c}
		}
		var tm timings
		for r := 0; r < 4; r++ {
			round, err := replayRound(rec.units, players)
			if err != nil || round.failed != 0 {
				t.Fatalf("replay with %d clients: %d mismatches, err %v", clients, round.failed, err)
			}
			tm.add(round)
		}
		client := func(u int) int { return rec.units[u].client % clients }
		perSecond := func(busiestMS float64) float64 { return float64(rec.tally.tasks) / (busiestMS / 1000) }
		task := func(u int) int { return rec.units[u].task }
		return perSecond(tm.busiest(clients, client, task)), perSecond(sortedCopy(sumBy(tm.best(), clients, client))[clients-1])
	}
	fleetFree, minimaFree := tasksPerSecond(h.base, 2)
	fleetLocked, minimaLocked := tasksPerSecond(locked.URL, 2)
	oneFree, _ := tasksPerSecond(h.base, 1)
	oneLocked, _ := tasksPerSecond(locked.URL, 1)
	t.Logf("tasks/s: two clients %.0f -> %.0f under the lock (a sum of unit minima reads %.0f -> %.0f), one client %.0f -> %.0f",
		fleetFree, fleetLocked, minimaFree, minimaLocked, oneFree, oneLocked)
	if fleetLocked > 0.8*fleetFree {
		t.Errorf("two clients: %.0f tasks/s under a lock around every request against %.0f without: the contention is not measured", fleetLocked, fleetFree)
	}
	if oneLocked < 0.75*oneFree {
		t.Errorf("one client: %.0f tasks/s under the lock against %.0f without: a lock nobody else wants must not move it", oneLocked, oneFree)
	}
}

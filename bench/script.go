package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"time"

	"github.com/streamtune/streamtune/internal/dag"
	"github.com/streamtune/streamtune/internal/dagspec"
	"github.com/streamtune/streamtune/internal/engine"
	"github.com/streamtune/streamtune/internal/experiments"
	"github.com/streamtune/streamtune/internal/service"
	"github.com/streamtune/streamtune/internal/streamtune"
)

// unitKind names what one timed unit of a script does.
type unitKind int

const (
	kindRegister unitKind = iota
	kindRecommend
	kindObserve
	kindRelease
	kindCheckpoint
	kindRestore
	kindStart // rate-trace: Tuner.Start
	kindStep  // rate-trace: Process.Step
	numKinds
)

var kindNames = [numKinds]string{"register", "recommend", "observe", "release", "checkpoint", "restore", "start", "step"}

func (k unitKind) String() string { return kindNames[k] }

// unit is one timed operation of a script: an HTTP request with its
// recorded response, or an in-process call (checkpoint and restore on
// durable; Tuner.Start, Process.Step and Process.Observe on rate-trace)
// whose recorded outcome lives with the workload that issues it.
type unit struct {
	task   int // the task this unit's time is charged to
	client int // the closed-loop client that issues it
	kind   unitKind

	method, path string
	body         []byte // request body, nil when the request has none
	status       int    // recorded response status
	want         []byte // recorded response body
}

// taskSpec is one tuning task of an HTTP script before it is recorded.
type taskSpec struct {
	workload   experiments.Workload
	multiplier int
	// half says which client issues the task when there are two. It is a
	// property of the task, not of its position, so that both clients
	// carry the same work whatever order the seed draws.
	half int
}

// scriptMultipliers are the rate multipliers every Flink workload is
// tuned at in one round. The set is fixed so that every seed replays the
// same multiset of tasks in a different order: tasks are independent
// (each registers a fresh session over the shared warm-up set), so the
// tuning counts are seed-invariant and two runs on different seeds are
// comparable.
var scriptMultipliers = []int{3, 7}

// drawTasks returns the round's tasks, shuffled by seed.
func drawTasks(workloads []experiments.Workload, seed int64) []taskSpec {
	var tasks []taskSpec
	for wi, w := range workloads {
		for mi, m := range scriptMultipliers {
			tasks = append(tasks, taskSpec{workload: w, multiplier: m, half: (wi + mi) % 2})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(tasks), func(i, j int) { tasks[i], tasks[j] = tasks[j], tasks[i] })
	return tasks
}

// tally accumulates the exact per-task tuning counts a recording yields.
type tally struct {
	tasks            int
	reconfigurations int
	backpressure     int
	finalParallelism int
	optimal          int // ground-truth minimum parallelism, same jobs
	observations     int
	engineRun        time.Duration // simulator time, never on a timed path
	engineRuns       int
}

func (t *tally) addFinal(final map[string]int, g *dag.Graph, cfg engine.Config) error {
	opt, err := engine.GroundTruthOptimal(g, cfg)
	if err != nil {
		return err
	}
	for _, p := range final {
		t.finalParallelism += p
	}
	for _, p := range opt {
		t.optimal += p
	}
	return nil
}

// recording is a recorded script: the units in issue order, the tasks'
// final recommendations and the tuning counts.
type recording struct {
	units  []unit
	jobs   []job
	finals []map[string]int
	tally  tally
}

// httpClient is one thin closed-loop client on its own connection.
type httpClient struct {
	base string
	c    *http.Client
}

func newHTTPClient(base string) *httpClient {
	return &httpClient{base: base, c: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
	}}}
}

func (c *httpClient) close() { c.c.CloseIdleConnections() }

// do sends one request and returns the status and the whole body.
func (c *httpClient) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, got, err
}

// recordHTTP is round 0 of an HTTP workload: every task is driven over
// the wire against its live simulated engine, and each request is
// stored with the response it got. The simulator and the JSON encoding
// of the requests happen here and never again.
func recordHTTP(h *harness, tasks []taskSpec, clients int, d *durable) (*recording, error) {
	c := newHTTPClient(h.base)
	defer c.close()
	cfg := engineConfig(h.opts)
	rec := &recording{}
	for ti, ts := range tasks {
		j := newJob(fmt.Sprintf("task-%03d", ti), ts.workload, float64(ts.multiplier))
		rec.jobs = append(rec.jobs, j)
		spec, err := dagspec.FromGraph(j.graph)
		if err != nil {
			return nil, err
		}
		specDoc, err := spec.Encode()
		if err != nil {
			return nil, err
		}
		regBody, err := json.Marshal(service.RegisterRequest{JobID: j.id, Spec: specDoc, Engine: &cfg})
		if err != nil {
			return nil, err
		}
		call := func(kind unitKind, method, path string, body []byte, into any) error {
			status, got, err := c.do(method, path, body)
			if err != nil {
				return fmt.Errorf("%s %s: %w", method, path, err)
			}
			if status != http.StatusOK {
				return fmt.Errorf("%s %s: status %d: %s", method, path, status, got)
			}
			rec.units = append(rec.units, unit{task: ti, client: ts.half % clients, kind: kind,
				method: method, path: path, body: body, status: status, want: got})
			if into != nil {
				return json.Unmarshal(got, into)
			}
			return nil
		}
		if err := call(kindRegister, http.MethodPost, "/v1/jobs", regBody, nil); err != nil {
			return nil, err
		}
		eng, err := engine.New(j.graph, cfg)
		if err != nil {
			return nil, err
		}
		var final map[string]int
		for final == nil {
			var r service.Recommendation
			if err := call(kindRecommend, http.MethodPost, "/v1/jobs/"+j.id+"/recommend", nil, &r); err != nil {
				return nil, err
			}
			if r.Done {
				final = r.Parallelism
				break
			}
			if r.Deploy {
				rec.tally.reconfigurations++
				if err := eng.Deploy(r.Parallelism); err != nil {
					return nil, err
				}
				eng.Stabilize(h.pt.Config.StabilizeWait)
			}
			t0 := time.Now()
			m, err := eng.Run()
			rec.tally.engineRun += time.Since(t0)
			rec.tally.engineRuns++
			if err != nil {
				return nil, err
			}
			if m.Backpressured {
				rec.tally.backpressure++
			}
			obsBody, err := json.Marshal(service.ObserveRequest{Metrics: m})
			if err != nil {
				return nil, err
			}
			rec.tally.observations++
			if err := call(kindObserve, http.MethodPost, "/v1/jobs/"+j.id+"/metrics", obsBody, nil); err != nil {
				return nil, err
			}
		}
		if err := call(kindRelease, http.MethodDelete, "/v1/jobs/"+j.id, nil, nil); err != nil {
			return nil, err
		}
		if d != nil {
			for _, kind := range d.after(ti) {
				op := d.checkpoint
				if kind == kindRestore {
					op = d.restore
				}
				_, got, err := op()
				if err != nil {
					return nil, fmt.Errorf("%s after task %d: %w", kind, ti, err)
				}
				rec.units = append(rec.units, unit{task: ti, kind: kind, want: got})
			}
		}
		rec.finals = append(rec.finals, final)
		rec.tally.tasks++
		if err := rec.tally.addFinal(final, j.graph, cfg); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// checkReferences counts the tasks whose recorded final recommendation
// differs from a sequential caller-owned Tuner.Tune run of the same job
// on the same simulated engine. picks selects which tasks are checked.
func checkReferences(pt *streamtune.PreTrained, rec *recording, cfg engine.Config, picks []int) (failed int, err error) {
	for _, ti := range picks {
		eng, err := engine.New(rec.jobs[ti].graph, cfg)
		if err != nil {
			return failed, err
		}
		tuner, err := streamtune.NewTuner(pt, eng.Graph())
		if err != nil {
			return failed, err
		}
		res, err := tuner.Tune(eng)
		if err != nil {
			return failed, err
		}
		if !reflect.DeepEqual(res.Parallelism, rec.finals[ti]) {
			failed++
		}
	}
	return failed, nil
}

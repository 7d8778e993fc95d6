package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/streamtune/streamtune/internal/bottleneck"
	"github.com/streamtune/streamtune/internal/dag"
	"github.com/streamtune/streamtune/internal/dagspec"
	"github.com/streamtune/streamtune/internal/engine"
	"github.com/streamtune/streamtune/internal/ged"
	"github.com/streamtune/streamtune/internal/mono"
	"github.com/streamtune/streamtune/internal/service"
	"github.com/streamtune/streamtune/internal/streamtune"
)

// The traced pass measures the layers from outside: the benchmark's own
// files time calls into each layer's public functions; nothing inside
// the program is instrumented. Each script unit is executed three
// times, on three replicas that hold the same state:
//
//	A  the service behind its listener        -> span http.roundtrip
//	B  a twin service, called directly        -> span service.<endpoint>
//	C  a caller-owned tuner driven by hand,   -> spans dagspec.decode,
//	   in the order the service makes the        ged.assign, gnn.infer,
//	   calls                                     gnn.distill, mono.fit,
//	                                             streamtune.step, ...
//
// Parent links are therefore logical, not temporal: B's call stands for
// the call A's handler made, C's calls for the calls B made. A fit that
// happens inside Process.Step or Process.Observe cannot be timed from
// outside, so it is measured by fitting a scratch model on the tuner's
// training set right after the call returned (the models refit from
// scratch as a pure function of the set); such spans carry replica=true.
// A layer's self time is its span minus its child spans.

// span is one timed call.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1: a root
	Name    string `json:"name"`
	Task    int    `json:"task"`
	Unit    int    `json:"unit"`
	Round   int    `json:"round"`
	StartNS int64  `json:"start_ns"` // since the trace began
	EndNS   int64  `json:"end_ns"`
	Replica bool   `json:"replica,omitempty"`
}

// tracer keeps spans in memory until the run ends. The traced pass is
// single-threaded, so it needs no lock.
type tracer struct {
	t0    time.Time
	round int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// cursor says where new spans attach: the parent span and the script
// position.
type cursor struct{ parent, task, unit int }

func (t *tracer) begin(name string, at cursor) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: at.parent, Name: name, Task: at.task, Unit: at.unit,
		Round: t.round, StartNS: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.EndNS = int64(time.Since(t.t0))
	return time.Duration(s.EndNS - s.StartNS)
}

// under returns a cursor for the children of span id.
func (c cursor) under(id int) cursor { return cursor{parent: id, task: c.task, unit: c.unit} }

// layerReplica is replica C: one caller-owned tuner per task, driven
// through the public layer calls in the order Service.Register,
// Recommend and Observe (or Tuner.Tune) make them.
type layerReplica struct {
	pt    *streamtune.PreTrained
	tr    *tracer
	cache *ged.PairCache        // the admission cache's stand-in
	warm  map[int][]mono.Sample // per-cluster warm-up sets, as the service caches them

	tuner *streamtune.Tuner
	proc  *streamtune.Process
	fits  int // OnFit count of the current tuner

	scratch    mono.Model // refitted for every fit that cannot be timed in place
	fitSamples []int      // training-set size at every fit
}

// newLayerReplica builds replica C and, like a service that has served
// its cold tasks, every cluster's warm-up set (one root span each).
func newLayerReplica(pt *streamtune.PreTrained, tr *tracer) (*layerReplica, error) {
	scratch, err := mono.New(pt.Config.Model, pt.Config.GNN.PMax, pt.Config.ModelSeed)
	if err != nil {
		return nil, err
	}
	l := &layerReplica{pt: pt, tr: tr, cache: ged.NewPairCache(), warm: map[int][]mono.Sample{}, scratch: scratch}
	for c := range pt.Clusters.Centers {
		id := tr.begin("streamtune.warmup", cursor{parent: -1, task: -1, unit: -1 - c})
		l.warm[c], err = streamtune.ClusterWarmup(pt, c)
		tr.end(id)
		if err != nil {
			return nil, err
		}
	}
	return l, nil
}

// assign is Service.assignCluster from outside: the same center order
// and tie-breaking over a fingerprint-keyed cache.
func (l *layerReplica) assign(g *dag.Graph) int {
	_ = ged.Fingerprint(g)
	best, bestD := -1, math.Inf(1)
	for c, center := range l.pt.Clusters.Centers {
		d, ok := l.cache.Lookup(g, center)
		if !ok {
			d = l.cache.Distance(g, center)
		}
		if d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// adopt installs a fresh tuner for a new task.
func (l *layerReplica) adopt(t *streamtune.Tuner) {
	l.tuner, l.proc, l.fits = t, nil, 0
	t.SetInstruments(streamtune.Instruments{OnFit: func() { l.fits++ }})
}

// fitReplica times one fit of the scratch model on the tuner's current
// training set, n times over: the stand-in for n fits that just happened
// inside a call.
func (l *layerReplica) fitReplica(n int, at cursor) error {
	if n == 0 {
		return nil
	}
	samples := l.tuner.TrainingSamples()
	for i := 0; i < n; i++ {
		id := l.tr.begin("mono.fit", at)
		err := l.scratch.Fit(samples)
		l.tr.end(id)
		l.tr.spans[id].Replica = true
		l.fitSamples = append(l.fitSamples, len(samples))
		if err != nil {
			return err
		}
	}
	return nil
}

// start opens the inference session and distills the target, the two
// calls behind Tuner.Start.
func (l *layerReplica) start(g *dag.Graph, cfg engine.Config, at cursor) error {
	id := l.tr.begin("gnn.infer", at)
	sess, err := l.pt.Encoder(l.tuner.ClusterID()).NewInferSession(g)
	l.tr.end(id)
	if err != nil {
		return err
	}
	id = l.tr.begin("gnn.distill", at)
	l.proc, err = l.tuner.StartWithSession(sess, cfg)
	l.tr.end(id)
	return err
}

// register mirrors Service.Register for a spec registration.
func (l *layerReplica) register(specDoc []byte, cfg engine.Config, at cursor) error {
	id := l.tr.begin("dagspec.decode", at)
	spec, err := dagspec.Parse(specDoc)
	var g *dag.Graph
	if err == nil {
		g, err = spec.Compile()
	}
	l.tr.end(id)
	if err != nil {
		return err
	}
	id = l.tr.begin("ged.assign", at)
	c := l.assign(g)
	l.tr.end(id)
	tuner, err := streamtune.NewTunerWithWarmup(l.pt, c, l.warm[c])
	if err != nil {
		return err
	}
	l.adopt(tuner)
	if err := l.start(g, cfg, at); err != nil {
		return err
	}
	// Prefit is nothing but the fit, so it is timed in place.
	id = l.tr.begin("mono.fit", at)
	err = l.proc.Prefit()
	l.tr.end(id)
	l.fitSamples = append(l.fitSamples, l.tuner.TrainingSetSize())
	return err
}

// step mirrors one Process.Step and returns what it returned.
func (l *layerReplica) step(at cursor) (rec map[string]int, deploy, done bool, err error) {
	fits := l.fits
	id := l.tr.begin("streamtune.step", at)
	rec, deploy, done, err = l.proc.Step()
	l.tr.end(id)
	if err != nil {
		return nil, false, false, err
	}
	return rec, deploy, done, l.fitReplica(l.fits-fits, at.under(id))
}

// observe mirrors one Process.Observe.
func (l *layerReplica) observe(g *dag.Graph, m *engine.JobMetrics, cfg engine.Config, at cursor) (bool, error) {
	fits := l.fits
	id := l.tr.begin("streamtune.observe", at)
	done, err := l.proc.Observe(m)
	l.tr.end(id)
	if err != nil {
		return false, err
	}
	child := at.under(id)
	hid := l.tr.begin("bottleneck.harvest", child)
	_, err = bottleneck.ForFlavor(g, m, cfg)
	l.tr.end(hid)
	l.tr.spans[hid].Replica = true
	if err != nil {
		return false, err
	}
	return done, l.fitReplica(l.fits-fits, child)
}

// decodedUnit is an HTTP unit's request in the form the direct and the
// layer calls take, decoded once before the traced rounds.
type decodedUnit struct {
	job     string
	specDoc []byte
	graph   *dag.Graph
	engine  engine.Config
	metrics *engine.JobMetrics
}

func decodeUnits(rec *recording) ([]decodedUnit, error) {
	out := make([]decodedUnit, len(rec.units))
	for ui, u := range rec.units {
		out[ui].job = rec.jobs[u.task].id
		switch u.kind {
		case kindRegister:
			var req service.RegisterRequest
			if err := json.Unmarshal(u.body, &req); err != nil {
				return nil, err
			}
			spec, err := dagspec.Parse(req.Spec)
			if err != nil {
				return nil, err
			}
			g, err := spec.Compile()
			if err != nil {
				return nil, err
			}
			out[ui].specDoc, out[ui].graph, out[ui].engine = req.Spec, g, *req.Engine
		case kindObserve:
			var req service.ObserveRequest
			if err := json.Unmarshal(u.body, &req); err != nil {
				return nil, err
			}
			out[ui].metrics = req.Metrics
		}
	}
	return out, nil
}

// tracedRound plays an HTTP recording once on the three replicas and
// returns replica A's per-unit durations and its failed operations.
func tracedRound(tr *tracer, rec *recording, dec []decodedUnit, a *player, b *service.Service, c *layerReplica) (roundResult, error) {
	ctx := context.Background()
	res := roundResult{took: make([]time.Duration, len(rec.units)), ratio: make([]float64, len(rec.units))}
	took := res.took
	var clk unitClock
	var g *dag.Graph
	var cfg engine.Config
	for ui := range rec.units {
		u := &rec.units[ui]
		d := &dec[ui]
		at := cursor{parent: -1, task: u.task, unit: ui}
		clk.mark() // the twin and the layer replica ran since the last unit
		switch u.kind {
		case kindCheckpoint:
			id := tr.begin("service.checkpoint", at)
			dur, got, err := a.d.checkpoint()
			tr.end(id)
			took[ui], res.ratio[ui] = dur, clk.ratio()
			if err != nil || string(got) != string(u.want) {
				res.failed++
			}
			sid := tr.begin("service.snapshot_encode", at.under(id))
			_, err = a.d.h.svc.Snapshot()
			tr.end(sid)
			tr.spans[sid].Replica = true
			if err != nil {
				return res, err
			}
			continue
		case kindRestore:
			id := tr.begin("service.restore", at)
			dur, got, err := a.d.restore()
			res.ratio[ui] = clk.ratio()
			tr.end(id)
			// The span also covers the off-clock verification; keep the
			// timed part only.
			tr.spans[id].EndNS = tr.spans[id].StartNS + int64(dur)
			took[ui] = dur
			if err != nil || string(got) != string(u.want) {
				res.failed++
			}
			continue
		}

		root := tr.begin("http.roundtrip", at)
		dur, ok, err := a.play(u)
		res.ratio[ui] = clk.ratio()
		tr.end(root)
		if err != nil {
			return res, err
		}
		took[ui] = dur
		if !ok {
			res.failed++
		}

		sid := tr.begin("service."+u.kind.String(), at.under(root))
		switch u.kind {
		case kindRegister:
			_, err = b.Register(ctx, d.job, d.graph, d.engine)
		case kindRecommend:
			_, err = b.Recommend(ctx, d.job)
		case kindObserve:
			_, err = b.Observe(ctx, d.job, d.metrics)
		case kindRelease:
			err = b.Release(d.job)
		}
		tr.end(sid)
		if err != nil {
			return res, fmt.Errorf("twin %s %s: %w", u.kind, d.job, err)
		}

		under := at.under(sid)
		switch u.kind {
		case kindRegister:
			g, cfg = d.graph, d.engine
			err = c.register(d.specDoc, cfg, under)
		case kindRecommend:
			_, _, _, err = c.step(under)
		case kindObserve:
			_, err = c.observe(g, d.metrics, cfg, under)
		}
		if err != nil {
			return res, fmt.Errorf("layer replica %s %s: %w", u.kind, d.job, err)
		}
	}
	return res, nil
}

// tracedTraceRound plays the rate-trace recording once: replica A is the
// tuning process taken by hand as in every replay round (one root span
// per process, as long as its calls took together), replica C the same
// process again with a span around every layer call. There is no
// service, so no replica B.
func tracedTraceRound(tr *tracer, pt *streamtune.PreTrained, rec *traceRecording, cfg engine.Config, c *layerReplica) (roundResult, error) {
	res := roundResult{took: make([]time.Duration, 0, len(rec.units))}
	var clk unitClock
	task := 0
	for ci, cell := range rec.cells {
		g := rec.graphs[ci]
		tuner, err := streamtune.NewTuner(pt, g)
		if err != nil {
			return res, err
		}
		byHand, err := streamtune.NewTuner(pt, g)
		if err != nil {
			return res, err
		}
		c.adopt(byHand)
		for si := range rec.steps[ci] {
			step := &rec.steps[ci][si]
			cell.workload.SetRate(g, step.multiplier)
			at := cursor{parent: -1, task: task, unit: len(res.took)}
			task++

			var calls time.Duration
			root := tr.begin("streamtune.tune", at)
			clk.mark()
			ok, err := driveByHand(tuner, g, cfg, step, func(_ unitKind, d time.Duration) {
				res.took = append(res.took, d)
				res.ratio = append(res.ratio, clk.ratio())
				calls += d
			})
			tr.end(root)
			tr.spans[root].EndNS = tr.spans[root].StartNS + int64(calls)
			if err != nil {
				return res, err
			}
			if !ok {
				res.failed++
			}

			under := at.under(root)
			if err := c.start(g, cfg, under); err != nil {
				return res, err
			}
			for mi := 0; ; {
				_, _, done, err := c.step(under)
				if err != nil {
					return res, err
				}
				if done || mi >= len(step.metrics) {
					break
				}
				done, err = c.observe(g, step.metrics[mi], cfg, under)
				mi++
				if err != nil {
					return res, err
				}
				if done {
					break
				}
			}
		}
	}
	return res, nil
}

// spanKey identifies the same call across rounds: the unit it belongs
// to, its name, and which occurrence of that name within the unit.
type spanKey struct {
	unit, occurrence int
	name             string
}

// layerStats is what the spans say about one span name, per round: how
// many calls, the sum of their minimum durations over the rounds, the
// same of their self times, and the layer's share of all self time.
type layerStats struct {
	Name     string  `json:"layer"`
	Calls    int     `json:"calls_per_round"`
	TotalMS  float64 `json:"total_ms_per_round"`
	SelfMS   float64 `json:"self_ms_per_round"`
	SharePct float64 `json:"self_share_pct"`
}

// spanCell is one call's minimum duration over the traced rounds and its
// self time — that minimum less its children's minima — in milliseconds.
// Minima are taken per call and subtracted afterwards: a round's own
// (span minus children) would be pulled down by whatever disturbed the
// children in that round.
type spanCell struct{ dur, self float64 }

// spanSummary reduces the spans of all traced rounds with the
// estimator's rule — a call's time is its minimum over the rounds — and
// returns per-name statistics plus every call's cell. Every round
// issues the same calls in the same order, so a call is identified by
// its unit, its name, and its occurrence within the unit.
func spanSummary(spans []span) (map[string]*layerStats, map[spanKey]spanCell) {
	keys := make([]spanKey, len(spans))
	occ := map[[2]int]map[string]int{} // (round, unit) -> name -> occurrences seen
	best := map[spanKey]spanCell{}
	for i, s := range spans {
		ru := [2]int{s.Round, s.Unit}
		if occ[ru] == nil {
			occ[ru] = map[string]int{}
		}
		k := spanKey{unit: s.Unit, occurrence: occ[ru][s.Name], name: s.Name}
		occ[ru][s.Name]++
		keys[i] = k
		dur := float64(s.EndNS-s.StartNS) / 1e6
		if prev, ok := best[k]; ok && prev.dur <= dur {
			continue
		}
		best[k] = spanCell{dur: dur}
	}
	children := map[spanKey]float64{}
	counted := map[spanKey]bool{}
	for i, s := range spans {
		if s.Parent >= 0 && !counted[keys[i]] {
			counted[keys[i]] = true
			children[keys[s.Parent]] += best[keys[i]].dur
		}
	}
	stats := map[string]*layerStats{}
	for k, c := range best {
		c.self = c.dur - children[k]
		best[k] = c
		st := stats[k.name]
		if st == nil {
			st = &layerStats{Name: k.name}
			stats[k.name] = st
		}
		st.Calls++
		st.TotalMS += c.dur
		st.SelfMS += c.self
	}
	return stats, best
}

// selfTimeTable orders the layers by self time and fills their shares.
func selfTimeTable(stats map[string]*layerStats) []layerStats {
	var rows []layerStats
	var total float64
	for _, st := range stats {
		rows = append(rows, *st)
		total += st.SelfMS
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfMS != rows[j].SelfMS {
			return rows[i].SelfMS > rows[j].SelfMS
		}
		return rows[i].Name < rows[j].Name
	})
	for i := range rows {
		if total > 0 {
			rows[i].SharePct = 100 * rows[i].SelfMS / total
		}
	}
	return rows
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"github.com/streamtune/streamtune/internal/service"
)

// durable is the script-driven checkpointing of the durable workload: a
// service.Checkpointer on a directory inside the checkout, never
// started, so checkpoints happen where the script says and not on a
// timer.
type durable struct {
	h    *harness
	ckpt *service.Checkpointer
	dir  string
}

const (
	checkpointEvery = 4 // CheckpointNow after every 4th task
	restoreEvery    = 8 // RestoreFromDir after every 8th task
)

func newDurable(h *harness, dir string) (*durable, error) {
	ckpt, err := service.NewCheckpointer(h.svc, service.CheckpointConfig{Dir: dir, Keep: 3})
	if err != nil {
		return nil, err
	}
	return &durable{h: h, ckpt: ckpt, dir: dir}, nil
}

// restoreOutcome is what a restored instance must reproduce: the job
// list and one resident session's next recommendation.
type restoreOutcome struct {
	Jobs []string                `json:"jobs"`
	Next *service.Recommendation `json:"next"`
}

// checkpoint takes one checkpoint, timed, and reports the size of the
// file it wrote. No script request touches the resident sessions and
// every task is released before a checkpoint, so every checkpoint of a
// run holds the same bytes; the restore units decode them, checksum
// included.
func (d *durable) checkpoint() (time.Duration, []byte, error) {
	t0 := time.Now()
	path, err := d.ckpt.CheckpointNow()
	took := time.Since(t0)
	if err != nil {
		return 0, nil, err
	}
	info, err := os.Stat(path)
	if err != nil {
		return 0, nil, err
	}
	return took, []byte(fmt.Sprintf("%d bytes", info.Size())), nil
}

// restore brings a second instance up from the newest checkpoint,
// timed, then off the clock asks it for its job list and a resident
// session's next recommendation and closes it.
func (d *durable) restore() (time.Duration, []byte, error) {
	cfg := serviceConfig()
	t0 := time.Now()
	svc, _, skipped, err := service.RestoreFromDir(d.h.pt, cfg, d.dir)
	took := time.Since(t0)
	if err != nil {
		return 0, nil, err
	}
	if svc == nil || len(skipped) > 0 {
		return 0, nil, fmt.Errorf("restore from %s: no checkpoint or %d skipped: %v", d.dir, len(skipped), skipped)
	}
	defer svc.Close()
	next, err := svc.Recommend(context.Background(), residentID(0))
	if err != nil {
		return 0, nil, err
	}
	out, err := json.Marshal(restoreOutcome{Jobs: svc.JobIDs(), Next: next})
	return took, out, err
}

// after returns the in-process units the script places after task ti.
func (d *durable) after(ti int) []unitKind {
	var kinds []unitKind
	if (ti+1)%checkpointEvery == 0 {
		kinds = append(kinds, kindCheckpoint)
	}
	if (ti+1)%restoreEvery == 0 {
		kinds = append(kinds, kindRestore)
	}
	return kinds
}

// player replays units for one client.
type player struct {
	c *httpClient
	d *durable // nil unless the script has checkpoint/restore units
}

// play executes one unit and reports how long it took and whether its
// outcome matched the recording. An error is a harness failure (the
// transport broke), not a failed operation.
func (p *player) play(u *unit) (time.Duration, bool, error) {
	switch u.kind {
	case kindCheckpoint:
		took, got, err := p.d.checkpoint()
		return took, err == nil && bytes.Equal(got, u.want), nil
	case kindRestore:
		took, got, err := p.d.restore()
		return took, err == nil && bytes.Equal(got, u.want), nil
	}
	t0 := time.Now()
	status, got, err := p.c.do(u.method, u.path, u.body)
	took := time.Since(t0)
	if err != nil {
		return 0, false, err
	}
	return took, status == u.status && bytes.Equal(got, u.want), nil
}

// replayRound replays the recording once: every client walks its own
// units in order, closed loop, all clients at the same time (a single
// player walks all of them). It returns each unit's duration and the
// number of operations that failed.
func replayRound(units []unit, players []*player) (roundResult, error) {
	took := make([]time.Duration, len(units))
	ratio := make([]float64, len(units))
	failed := make([]int, len(players))
	errs := make([]error, len(players))
	var wg sync.WaitGroup
	for ci, p := range players {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var clk unitClock
			clk.mark()
			for ui := range units {
				u := &units[ui]
				if u.client%len(players) != ci {
					continue
				}
				d, ok, err := p.play(u)
				ratio[ui] = clk.ratio()
				if err != nil {
					errs[ci] = fmt.Errorf("unit %d (%s task %d): %w", ui, u.kind, u.task, err)
					return
				}
				took[ui] = d
				if !ok {
					failed[ci]++
				}
			}
		}()
	}
	wg.Wait()
	res := roundResult{took: took, ratio: ratio}
	for ci := range players {
		if errs[ci] != nil {
			return res, errs[ci]
		}
		res.failed += failed[ci]
	}
	return res, nil
}

// roundResult is one round of any workload: each unit's duration, the
// clock ratio read around it, and how many operations failed.
type roundResult struct {
	took   []time.Duration
	ratio  []float64
	failed int
}

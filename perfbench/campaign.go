package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"numaperf/internal/campaign"
	"numaperf/internal/counters"
	"numaperf/internal/evsel"
	"numaperf/internal/exec"
	"numaperf/internal/journal"
	"numaperf/internal/perf"
	"numaperf/internal/topology"
	"numaperf/internal/workloads"
)

// The evsel-campaign sweep: a Fig. 9-style journaled campaign of every
// registered event over a small triad at three thread counts.
var campaignThreads = []int{1, 2, 4}

const (
	campaignElements    = 16 << 10
	campaignReps        = 3
	campaignConcurrency = 2
)

// runCampaign is one journaled campaign.Runner sweep, fsynced through
// the real filesystem, followed by a Resume over the complete journal
// that replays every cell.
func runCampaign(e *env, t *trace) (*sample, error) {
	s := newSample()
	start := time.Now()
	cells := &cellEngines{base: e.seed, t: t, engines: make(map[int64]*exec.Engine), work: &s.work}
	mach := topology.TwoSocket()
	spec := campaign.Spec{ParamName: "threads", Reps: campaignReps, Mode: perf.Batched, Seed: e.seed}
	for id := counters.EventID(0); id < counters.NumEvents; id++ {
		spec.Events = append(spec.Events, id)
	}
	for _, n := range campaignThreads {
		spec.Points = append(spec.Points, campaign.Point{Param: float64(n), Mk: cells.mk(mach, n)})
	}
	opts := campaign.Options{
		Concurrency: campaignConcurrency,
		JournalPath: filepath.Join(e.dir, "sweep.jnl"),
		Wrap:        cells.wrap,
	}
	if t != nil {
		opts.JournalFS = timedFS{FS: journal.OSFS, t: t}
	}
	s.setup = time.Since(start)

	before := allocated()
	fresh := time.Now()
	rep, err := (&campaign.Runner{Spec: spec, Opts: opts}).Run()
	if err != nil {
		return nil, err
	}
	s.fresh = time.Since(fresh)

	opts.Resume = true
	resume := time.Now()
	resumed, err := (&campaign.Runner{Spec: spec, Opts: opts}).Run()
	if err != nil {
		return nil, fmt.Errorf("resume: %w", err)
	}
	s.resume = time.Since(resume)
	s.allocBytes = allocated() - before

	s.cells = rep.Ran
	s.operations(rep.Cells+rep.Retried, rep.Retried, "cell retries")
	s.operations(0, len(rep.Gaps)+len(resumed.Gaps), "gaps")
	s.operations(0, len(rep.Quarantined)+len(resumed.Quarantined), "quarantines")
	table := sweepOf(rep).Render(0)
	s.digest = digest([]byte(table))
	s.check(rep.Complete(), "sweep incomplete: %d gaps, %d quarantined", len(rep.Gaps), len(rep.Quarantined))
	s.check(!rep.JournalDegraded, "journal degraded: %s", rep.JournalFault)
	s.check(resumed.Complete(), "resumed sweep incomplete")
	s.check(resumed.Replayed == resumed.Cells && resumed.Ran == 0,
		"resume replayed %d and ran %d of %d cells, want all replayed", resumed.Replayed, resumed.Ran, resumed.Cells)
	s.check(sweepOf(resumed).Render(0) == table, "resumed sweep renders differently")

	if t != nil {
		cellNs := t.sum("campaign.cell")
		s.work.chunks = t.chunks.Load()
		s.layers["exec.ns_per_sim_op"] = (cellNs - t.count("campaign.cell_engine_ns")) / s.work.simOps()
		s.layers["campaign.cells"] = float64(rep.Cells)
		s.layers["campaign.retries"] = float64(rep.Retried)
		s.layers["campaign.gaps"] = float64(len(rep.Gaps))
		s.layers["campaign.cell_ms_p50"] = t.quantile("campaign.cell", 0.5) / 1e6
		s.layers["campaign.cell_ms_p90"] = t.quantile("campaign.cell", 0.9) / 1e6
		s.layers["campaign.worker_busy_frac"] = cellNs / (float64(s.fresh) * campaignConcurrency)
		s.layers["campaign.replay_ms"] = float64(s.resume) / 1e6
	}
	return s, nil
}

// sweepOf turns a campaign report into the sweep evsel renders.
func sweepOf(rep *campaign.Report) *evsel.Sweep {
	sw := &evsel.Sweep{ParamName: rep.ParamName}
	for _, p := range rep.Points {
		sw.Points = append(sw.Points, evsel.SweepPoint{Param: p.Param, M: p.M})
	}
	return sw
}

// cellEngines connects the two campaign seams: Point.Mk builds each
// cell's engine, keyed by the seed the runner passes (base+index+1 for
// cell index, base for the planning engines), and Options.Wrap reads
// that engine's exact counters once the cell's run is done.
type cellEngines struct {
	base int64
	t    *trace

	mu      sync.Mutex
	engines map[int64]*exec.Engine
	work    *runWork
}

func (c *cellEngines) mk(mach *topology.Machine, threads int) func(int64) (*exec.Engine, func(*exec.Thread), error) {
	body := workloads.Triad{Elements: campaignElements, Passes: 1}
	return func(seed int64) (*exec.Engine, func(*exec.Thread), error) {
		// The runner builds its planning engines one at a time before
		// any cell runs, so their allocation can be measured alone.
		planning := seed == c.base
		start := time.Now()
		e, err := newEngine(c.t, exec.Config{Machine: mach, Threads: threads, Seed: seed}, planning)
		if err != nil {
			return nil, nil, err
		}
		if c.t != nil {
			e.SetPostChunkHook(func() { c.t.chunks.Add(1) })
		}
		if !planning {
			c.t.add("campaign.cell_engine_ns", float64(time.Since(start)))
			c.mu.Lock()
			c.engines[seed] = e
			c.mu.Unlock()
		}
		return e, body.Body(), nil
	}
}

func (c *cellEngines) wrap(next campaign.RunFunc) campaign.RunFunc {
	return func(cell campaign.Cell) (map[counters.EventID]float64, error) {
		start := time.Now()
		out, err := next(cell)
		c.t.span("campaign.cell", start)
		seed := c.base + int64(cell.Index) + 1
		c.mu.Lock()
		defer c.mu.Unlock()
		if e := c.engines[seed]; e != nil {
			delete(c.engines, seed)
			if err == nil {
				c.work.add(e.Sim().TotalCounts(), 1)
			}
		}
		return out, err
	}
}

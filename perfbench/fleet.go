package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"time"

	"numaperf/internal/exec"
	"numaperf/internal/fleet"
	"numaperf/internal/journal"
	"numaperf/internal/memhist"
	"numaperf/internal/topology"
	"numaperf/internal/workloads"
)

// The memhist-fleet campaign: threshold-cycled memhist cells of
// mlc-local on the 2-socket model, scattered over in-process probes.
const (
	fleetWorkload = "mlc-local"
	fleetMachine  = "2s"
	fleetCells    = 16
	fleetProbes   = 2
)

// runFleet is one loopback fleet campaign: a coordinator on 127.0.0.1
// with two in-process probe agents and an fsynced journal, followed by a
// resume over the complete journal that replays every cell.
func runFleet(e *env, t *trace) (*sample, error) {
	if e.mlcRun == nil {
		w, err := measureMLCRun(e.seed)
		if err != nil {
			return nil, err
		}
		e.mlcRun = w
	}
	s := newSample()
	spec := fleet.Spec{Workload: fleetWorkload, Machine: fleetMachine, Threads: 1, Cells: fleetCells, Seed: e.seed}

	start := time.Now()
	opts := fleet.Options{JournalPath: filepath.Join(e.dir, "fleet.jnl")}
	var ft *fleetTrace
	if t != nil {
		ft = &fleetTrace{t: t, base: spec.Seed, dispatched: make(map[int]time.Time), handled: make(map[int]time.Time)}
		opts.JournalFS = timedFS{FS: journal.OSFS, t: t}
		opts.Disruptor = ft
	}
	coord := fleet.NewCoordinator(opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	if t != nil {
		ln = tracedListener{Listener: ln, t: t}
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- coord.Serve(ln) }()
	ctx, cancel := context.WithCancel(context.Background())
	var agents sync.WaitGroup
	defer func() {
		cancel()
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer scancel()
		_ = coord.Shutdown(sctx)
		<-serveErr
		agents.Wait()
	}()
	for i := 0; i < fleetProbes; i++ {
		a := &fleet.ProbeAgent{ID: fmt.Sprintf("bench-%d", i+1), Coordinator: addr}
		if ft != nil {
			a.Handle = ft.handle
			a.Dial = ft.dial
		}
		agents.Add(1)
		go func() {
			defer agents.Done()
			_ = a.Run(ctx)
		}()
	}
	wctx, wcancel := context.WithTimeout(ctx, 30*time.Second)
	err = coord.WaitForProbes(wctx, fleetProbes)
	wcancel()
	if err != nil {
		return nil, err
	}
	s.setup = time.Since(start)

	before := allocated()
	fresh := time.Now()
	rep, err := coord.RunCampaign(ctx, spec)
	if err != nil {
		return nil, err
	}
	s.fresh = time.Since(fresh)

	opts.Resume = true
	opts.Disruptor = nil
	resume := time.Now()
	resumed, err := fleet.NewCoordinator(opts).RunCampaign(ctx, spec)
	if err != nil {
		return nil, fmt.Errorf("resume: %w", err)
	}
	s.resume = time.Since(resume)
	s.allocBytes = allocated() - before

	s.cells = rep.Completed
	s.work.add(e.mlcRun.counts, rep.Completed)
	s.work.chunks = e.mlcRun.chunks * int64(rep.Completed)
	s.operations(rep.Dispatches, rep.Redispatched, "cell re-dispatches")
	s.operations(0, len(rep.Gaps)+len(resumed.Gaps), "gaps")
	s.operations(0, len(rep.Quarantined)+len(resumed.Quarantined), "quarantines")
	hist, err := json.Marshal(rep.Histogram)
	if err != nil {
		return nil, err
	}
	replayed, err := json.Marshal(resumed.Histogram)
	if err != nil {
		return nil, err
	}
	s.digest = digest(hist)
	s.check(rep.Complete() && rep.Histogram != nil, "campaign completed %d of %d cells", rep.Completed, rep.Cells)
	s.check(len(rep.Gaps) == 0 && len(rep.Quarantined) == 0,
		"campaign has %d gaps and %d quarantined probes", len(rep.Gaps), len(rep.Quarantined))
	s.check(!rep.JournalDegraded, "journal degraded: %s", rep.JournalFault)
	s.check(resumed.Replayed == resumed.Cells, "resume replayed %d of %d cells", resumed.Replayed, resumed.Cells)
	s.check(string(replayed) == string(hist), "resumed histogram differs from the fresh one")

	if t != nil {
		handleNs := t.sum("memhist.handle")
		s.layers["exec.ns_per_sim_op"] = handleNs / s.work.simOps()
		if q := rep.Histogram.Quality; q != nil {
			s.layers["perf.samples_kept"] = float64(q.RecordsKept)
			s.layers["perf.samples_dropped"] = float64(q.Dropped())
			s.layers["perf.loss_rate"] = q.LossRate()
			s.layers["perf.duty_cycle"] = q.DutyCycle()
		}
		s.layers["memhist.handle_ms_p50"] = t.quantile("memhist.handle", 0.5) / 1e6
		s.layers["memhist.handle_ms_p90"] = t.quantile("memhist.handle", 0.9) / 1e6
		s.layers["fleet.dispatch_wait_ms_p50"] = t.quantile("fleet.dispatch_wait", 0.5) / 1e6
		s.layers["fleet.dispatch_wait_ms_p90"] = t.quantile("fleet.dispatch_wait", 0.9) / 1e6
		s.layers["fleet.commit_wait_ms_p50"] = t.quantile("fleet.commit_wait", 0.5) / 1e6
		s.layers["fleet.probe_busy_frac"] = handleNs / (float64(s.fresh) * fleetProbes)
		s.layers["fleet.redispatches"] = float64(rep.Redispatched)
		s.layers["fleet.backpressure"] = float64(rep.Backpressure)
		s.layers["fleet.gaps"] = float64(len(rep.Gaps))
	}
	return s, nil
}

// measureMLCRun runs the fleet workload once on its own engine and
// returns that run's exact counters and chunk count. Probes build their
// engines inside memhist.HandleRequest, out of the benchmark's reach,
// but every cell replays the same operations from a reset simulator
// (the cell seed only moves counter noise), so each completed cell did
// exactly this work.
func measureMLCRun(seed int64) (*runWork, error) {
	w, ok := workloads.ByName(fleetWorkload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", fleetWorkload)
	}
	mach, ok := topology.ByName(fleetMachine)
	if !ok {
		return nil, fmt.Errorf("unknown machine %q", fleetMachine)
	}
	e, err := exec.NewEngine(exec.Config{Machine: mach, Threads: 1, Seed: seed})
	if err != nil {
		return nil, err
	}
	var chunks int64
	e.SetPostChunkHook(func() { chunks++ })
	if _, err := e.Run(w.Body()); err != nil {
		return nil, err
	}
	return &runWork{counts: e.Sim().TotalCounts(), chunks: chunks}, nil
}

// fleetTrace times a cell from dispatch to handling to commit. It is
// the coordinator's no-fault fleet.CoordinatorDisruptor and the probes'
// Handle and Dial. A cell is known on the probe side by its request
// seed, base+cell+1.
type fleetTrace struct {
	t    *trace
	base int64

	mu         sync.Mutex
	dispatched map[int]time.Time // latest dispatch of each cell
	handled    map[int]time.Time // end of each cell's handling
}

func (f *fleetTrace) OnDispatch(cell, attempt int) bool {
	f.mu.Lock()
	f.dispatched[cell] = time.Now()
	f.mu.Unlock()
	return false
}

func (f *fleetTrace) OnCommit(cell int) fleet.CommitFault {
	f.mu.Lock()
	end, ok := f.handled[cell]
	f.mu.Unlock()
	if ok {
		f.t.span("fleet.commit_wait", end)
	}
	return fleet.CommitNone
}

func (f *fleetTrace) handle(req memhist.ProbeRequest) (*memhist.Histogram, error) {
	cell := int(req.Seed - f.base - 1)
	start := time.Now()
	f.mu.Lock()
	sent, ok := f.dispatched[cell]
	f.mu.Unlock()
	if ok {
		f.t.value("fleet.dispatch_wait", float64(start.Sub(sent)))
	}
	h, err := memhist.HandleRequest(req)
	end := time.Now()
	f.t.value("memhist.handle", float64(end.Sub(start)))
	f.mu.Lock()
	f.handled[cell] = end
	f.mu.Unlock()
	return h, err
}

func (f *fleetTrace) dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	c, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	return tracedConn{Conn: c, t: f.t}, nil
}

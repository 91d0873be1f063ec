package main

import (
	"fmt"
	"path/filepath"
	"time"

	"numaperf/internal/counters"
	"numaperf/internal/evsel"
	"numaperf/internal/exec"
	"numaperf/internal/perf"
	"numaperf/internal/topology"
	"numaperf/internal/workloads"
)

// fig8Events, fig8Size and fig8Reps are the counters, array size and
// repetitions of experiments.Fig8 at quick size.
var fig8Events = []counters.EventID{
	counters.InstRetired, counters.CPUCycles, counters.StallsTotal,
	counters.L1Miss, counters.L2Miss, counters.L3Miss,
	counters.L2PFRequests, counters.L3Reference, counters.LoadHitPre,
	counters.FBFull, counters.BranchMiss, counters.BranchRetired,
}

const (
	fig8Size = 512
	fig8Reps = 3
)

// runFig8 is one Fig. 8 EvSel comparison built from the calls
// experiments.Fig8 makes: two engines, a batched perf.Measure of each
// cache-miss variant, and evsel.Compare. The fresh phase also saves
// both measurements; the resume phase loads them back and compares
// again, which must render the same table.
func runFig8(e *env, t *trace) (*sample, error) {
	s := newSample()
	start := time.Now()
	mach := topology.TwoSocket()
	ea, err := newEngine(t, exec.Config{Machine: mach, Threads: 1, Seed: e.seed}, true)
	if err != nil {
		return nil, err
	}
	eb, err := newEngine(t, exec.Config{Machine: mach, Threads: 1, Seed: e.seed}, true)
	if err != nil {
		return nil, err
	}
	bodyA := workloads.CacheMissA(fig8Size).Body()
	bodyB := workloads.CacheMissB(fig8Size).Body()
	s.setup = time.Since(start)

	if t != nil {
		countChunks := func() { t.chunks.Add(1) }
		ea.SetPostChunkHook(countChunks)
		eb.SetPostChunkHook(countChunks)
	}
	before := allocated()
	fresh := time.Now()
	ma, err := measureFig8(s, t, ea, bodyA)
	if err != nil {
		return nil, fmt.Errorf("measuring A: %w", err)
	}
	mb, err := measureFig8(s, t, eb, bodyB)
	if err != nil {
		return nil, fmt.Errorf("measuring B: %w", err)
	}
	cmpStart := time.Now()
	cmp, err := evsel.Compare(ma, mb)
	t.span("evsel.compare", cmpStart)
	if err != nil {
		return nil, err
	}
	table := cmp.SortByImpact().Render()
	pathA, pathB := filepath.Join(e.dir, "a.json"), filepath.Join(e.dir, "b.json")
	if err := evsel.SaveMeasurementFile(pathA, ma); err != nil {
		return nil, err
	}
	if err := evsel.SaveMeasurementFile(pathB, mb); err != nil {
		return nil, err
	}
	s.fresh = time.Since(fresh)

	resume := time.Now()
	la, err := evsel.LoadMeasurementFile(pathA)
	if err != nil {
		return nil, err
	}
	lb, err := evsel.LoadMeasurementFile(pathB)
	if err != nil {
		return nil, err
	}
	reloaded, err := evsel.Compare(la, lb)
	if err != nil {
		return nil, err
	}
	replayed := reloaded.SortByImpact().Render()
	s.resume = time.Since(resume)
	s.allocBytes = allocated() - before

	s.cells = ma.Runs + mb.Runs
	s.operations(s.cells, 0, "runs")
	s.digest = digest([]byte(table))
	checkFig8Shape(s, cmp)
	s.check(replayed == table, "comparison of the reloaded measurements renders differently")

	if t != nil {
		measure := t.sum("perf.measure")
		s.work.chunks = t.chunks.Load()
		s.layers["exec.ns_per_sim_op"] = measure / s.work.simOps()
		s.layers["perf.measure_ms"] = measure / 1e6
		s.layers["perf.batches"] = float64(ma.Batches + mb.Batches)
		s.layers["evsel.compare_ms"] = t.sum("evsel.compare") / 1e6
	}
	return s, nil
}

// measureFig8 measures one variant and accounts its exact simulated
// work: every run of an engine replays the same operations from a reset
// simulator, so the last run's counters times the run count is the
// total.
func measureFig8(s *sample, t *trace, e *exec.Engine, body func(*exec.Thread)) (*perf.Measurement, error) {
	start := time.Now()
	m, err := perf.Measure(e, body, fig8Events, fig8Reps, perf.Batched)
	t.span("perf.measure", start)
	if err != nil {
		return nil, err
	}
	s.work.add(e.Sim().TotalCounts(), m.Runs)
	return m, nil
}

// checkFig8Shape asserts the quick-size Fig. 8 claims of the paper the
// experiments test suite holds the reproduction to.
func checkFig8Shape(s *sample, cmp *evsel.Comparison) {
	row := func(id counters.EventID) evsel.Row {
		r, _ := cmp.Row(id)
		return r
	}
	l1 := row(counters.L1Miss)
	s.check(l1.Test.Relative >= 2, "L1 miss delta %+.2f, want at least +200%%", l1.Test.Relative)
	pf := row(counters.L2PFRequests).Test.Relative
	s.check(pf <= -0.5, "prefetch delta %+.2f, want at most -50%%", pf)
	fb := row(counters.FBFull)
	s.check(fb.B.Mean >= 100*(fb.A.Mean+1), "FB_FULL %g -> %g, want a rise of 100x", fb.A.Mean, fb.B.Mean)
	instr := row(counters.InstRetired).Test.Relative
	s.check(instr >= -0.05 && instr <= 0.05, "instruction delta %+.3f, want within 5%%", instr)
	s.check(l1.Test.Confidence >= 0.999, "L1 miss confidence %.4f, want above 99.9%%", l1.Test.Confidence)
	cycles, stalls := row(counters.CPUCycles).Test.Relative, row(counters.StallsTotal).Test.Relative
	s.check(cycles > 0 && stalls > 0, "cycle delta %+.3f, stall delta %+.3f, want both positive", cycles, stalls)
}

package experiments

import (
	"math"

	"numaperf/internal/campaign"
	"numaperf/internal/counters"
	"numaperf/internal/evsel"
	"numaperf/internal/exec"
	"numaperf/internal/memhist"
	"numaperf/internal/perf"
	"numaperf/internal/phase"
	"numaperf/internal/workloads"
)

// fig8Events are the counters the paper's Fig. 8 reports on.
var fig8Events = []counters.EventID{
	counters.InstRetired, counters.CPUCycles, counters.StallsTotal,
	counters.L1Miss, counters.L2Miss, counters.L3Miss,
	counters.L2PFRequests, counters.L3Reference, counters.LoadHitPre,
	counters.FBFull, counters.BranchMiss, counters.BranchRetired,
}

// Fig8 reproduces the cache-miss comparison: Listing 1 (row major)
// versus Listing 2 (column major), all counters compared with Welch's
// t-test under register batching.
func Fig8(cfg Config) (*Report, error) {
	// The quick variant still needs 512² — smaller arrays do not alias
	// the L1 sets or overrun the L2, so the pathology would vanish.
	size := pick(cfg, 512, 1024)
	reps := pick(cfg, 3, 5)
	ec := exec.Config{Machine: cfg.machine(), Threads: 1}
	cmp, _, err := evsel.CompareRun(campaign.Library(campaign.Spec{
		ParamName: "workload",
		Points: []campaign.Point{
			campaign.EnginePoint(0, ec, workloads.CacheMissA(size).Body),
			campaign.EnginePoint(1, ec, workloads.CacheMissB(size).Body),
		},
		Events: fig8Events, Reps: reps, Mode: perf.Batched, Seed: cfg.Seed,
	}))
	if err != nil {
		return nil, err
	}
	rep := newReport("fig8", "Fig. 8 — EvSel comparison of the cache-miss micro-benchmark")
	rep.printf("array %d×%d floats, %d repetitions per register batch\n\n", size, size, reps)
	rep.printf("%s", cmp.SortByImpact().Render())

	get := func(id counters.EventID) evsel.Row {
		r, _ := cmp.Row(id)
		return r
	}
	rep.Metrics["l1_miss_rel"] = get(counters.L1Miss).Test.Relative
	rep.Metrics["l2_miss_rel"] = get(counters.L2Miss).Test.Relative
	rep.Metrics["l3_ref_rel"] = get(counters.L3Reference).Test.Relative
	rep.Metrics["pf_requests_rel"] = get(counters.L2PFRequests).Test.Relative
	rep.Metrics["fb_full_a"] = get(counters.FBFull).A.Mean
	rep.Metrics["fb_full_b"] = get(counters.FBFull).B.Mean
	rep.Metrics["branch_miss_rel"] = get(counters.BranchMiss).Test.Relative
	rep.Metrics["instr_rel"] = get(counters.InstRetired).Test.Relative
	rep.Metrics["l1_confidence"] = get(counters.L1Miss).Test.Confidence
	rep.Metrics["cycles_rel"] = get(counters.CPUCycles).Test.Relative
	rep.Metrics["stalls_rel"] = get(counters.StallsTotal).Test.Relative
	return rep, nil
}

// Fig9 reproduces the parallel-sort correlation study: thread count
// swept, every counter regressed against it; the paper highlights the
// positive L1D cache-lock correlation (R > 0.95) and the negative
// speculative-jump correlation (R > 0.99 in magnitude).
func Fig9(cfg Config) (*Report, error) {
	elements := pick(cfg, 1<<13, 1<<20)
	reps := pick(cfg, 1, 2)
	m := cfg.machine()
	var threadCounts []float64
	for _, tc := range pick(cfg, []int{1, 2, 4, 6, 8}, []int{1, 2, 4, 6, 8, 10, 12, 14, 16, 18}) {
		if tc <= m.Cores() {
			threadCounts = append(threadCounts, float64(tc))
		}
	}
	events := []counters.EventID{
		counters.CacheLockCycle, counters.SpecTakenJumps, counters.LockLoads,
		counters.BranchMiss, counters.InstRetired, counters.DTLBLoadMissWalk,
		counters.MachineClearsMO, counters.L3Reference,
	}
	sortWL := workloads.ParallelSort{Elements: elements}
	spec := campaign.Spec{ParamName: "threads", Events: events, Reps: reps, Mode: perf.Batched, Seed: cfg.Seed}
	for _, tc := range threadCounts {
		spec.Points = append(spec.Points, campaign.EnginePoint(tc, exec.Config{Machine: m, Threads: int(tc)}, sortWL.Body))
	}
	sweep, _, err := evsel.NewSweep(campaign.Library(spec))
	if err != nil {
		return nil, err
	}
	rep := newReport("fig9", "Fig. 9 — EvSel correlations for the parallel-sort micro-benchmark")
	rep.printf("%s over threads %v, %d elements\n\n", sortWL.Name(), threadCounts, elements)
	rep.printf("%s", sweep.Render(0.5))
	if c, ok := sweep.CorrelationFor(counters.CacheLockCycle); ok {
		rep.Metrics["lock_R"] = c.R
		rep.Metrics["lock_R2"] = c.Best.R2
	}
	if c, ok := sweep.CorrelationFor(counters.SpecTakenJumps); ok {
		rep.Metrics["spec_R"] = c.R
		rep.Metrics["spec_R2"] = c.Best.R2
	}
	return rep, nil
}

// histExperiment shares the Memhist measurement flow of Fig. 10.
// fullHz is the threshold-cycling frequency for full-size runs (the
// paper's Memhist uses 100 Hz; workloads whose simulated runs are much
// shorter than the originals cycle proportionally faster to keep
// several slices per threshold).
func histExperiment(cfg Config, id, title string, wl workloads.Workload, threads int,
	mode memhist.Mode, fullHz uint64) (*Report, *memhist.Histogram, error) {
	m := cfg.machine()
	// Small scheduling chunks so threshold rotation (driven by the
	// post-chunk hook) is finer than the requested slice even for
	// slow, DRAM-bound loads.
	e, err := exec.NewEngine(exec.Config{Machine: m, Threads: threads, Seed: cfg.Seed, Chunk: 256})
	if err != nil {
		return nil, nil, err
	}
	if fullHz == 0 {
		fullHz = 100
	}
	slice := pick(cfg, uint64(200_000), m.FreqHz/fullHz)
	// Adaptive dwell repair is on: with nothing disturbing the sampler
	// it reproduces the fixed 100 Hz rotation bit for bit (the metric
	// goldens pin that), and a starved threshold would be repaired
	// instead of silently scaled up from a sliver of dwell.
	h, err := memhist.Collect(e, wl.Body(), memhist.Options{SliceCycles: slice, Adaptive: true})
	if err != nil {
		return nil, nil, err
	}
	h.Source = wl.Name()
	rep := newReport(id, title)
	rep.printf("%s", h.Render(mode, 56))
	rep.printf("\npeaks:\n")
	for _, p := range h.Annotate(m) {
		rep.printf("  [%4d,%4d) %-14s %.4g\n", p.Lo, p.Hi, p.Label, p.Count)
	}
	if q := h.Quality; q != nil {
		// Printed, not a metric: the headline-drift guard pins the
		// metric set, and coverage is a fidelity annotation, not a
		// result of the paper's figure.
		rep.printf("\nsampling coverage: %.3f (min threshold dwell), duty cycle %.3f\n",
			h.Coverage(), q.DutyCycle())
	}
	rep.Metrics["negative_bins"] = float64(h.NegativeArtifacts())
	rep.Metrics["total"] = h.Total()
	return rep, h, nil
}

// Fig10a reproduces the NUMA-optimised SIFT histogram: peaks at L2, L3
// and local memory, essentially nothing remote.
func Fig10a(cfg Config) (*Report, error) {
	// The full-size image makes the per-socket working set overflow the
	// 45 MiB L3 (8 stripes × 3 planes × 2560×256 px ≈ 63 MiB), so the
	// histogram gains the local-memory component of the paper's figure;
	// extra blur passes stretch the run past the threshold-cycling
	// period.
	wl := workloads.SIFT{
		Width:      pick(cfg, 256, 2560),
		Height:     pick(cfg, 256, 2048),
		Octaves:    pick(cfg, 2, 3),
		BlurPasses: pick(cfg, 2, 4),
	}
	threads := pick(cfg, 2, minInt(8, cfg.machine().Cores()))
	// The simulated SIFT runs ~0.2 s where the original ran minutes;
	// cycling at 1 kHz keeps ~12 slices per threshold, the coverage
	// 100 Hz provided over the original's duration.
	rep, h, err := histExperiment(cfg, "fig10a",
		"Fig. 10a — Memhist, NUMA-SIFT, event occurrences", wl, threads, memhist.Occurrences, 1000)
	if err != nil {
		return nil, err
	}
	m := cfg.machine()
	localLat := m.LLC().LatencyCycles + m.MemLatency
	remoteLat := m.LLC().LatencyCycles + m.MemLatencyCycles(0, 1)
	rep.Metrics["local_mass"] = massNear(h, localLat)
	rep.Metrics["remote_mass"] = massNear(h, remoteLat)
	rep.Metrics["cache_mass"] = massBelow(h, 64)
	return rep, nil
}

// Fig10b reproduces the induced remote-access histogram in cost mode:
// remote-memory latencies dominate the cycles spent.
func Fig10b(cfg Config) (*Report, error) {
	// Two million dependent chases ≈ 0.9 s of simulated time, enough
	// for ~90 threshold slices at 100 Hz.
	wl := workloads.MLC{
		BufferBytes: pick(cfg, uint64(4<<20), uint64(64<<20)),
		Chases:      pick(cfg, 30_000, 2_000_000),
		Remote:      true,
	}
	rep, h, err := histExperiment(cfg, "fig10b",
		"Fig. 10b — Memhist, mlc remote latencies, event costs", wl, 1, memhist.Costs, 100)
	if err != nil {
		return nil, err
	}
	m := cfg.machine()
	localLat := m.LLC().LatencyCycles + m.MemLatency
	remoteLat := m.LLC().LatencyCycles + m.MemLatencyCycles(0, 1%m.Sockets)
	rep.Metrics["local_cost"] = costNear(h, localLat)
	rep.Metrics["remote_cost"] = costNear(h, remoteLat)
	return rep, nil
}

// massNear sums occurrence estimates of the interval containing lat and
// its direct neighbours.
func massNear(h *memhist.Histogram, lat uint64) float64 {
	idx := -1
	for i := range h.Bounds {
		lo, hi := h.Interval(i)
		if lat >= lo && (hi == 0 || lat < hi) {
			idx = i
			break
		}
	}
	if idx < 0 {
		return 0
	}
	sum := 0.0
	for i := idx - 1; i <= idx+1; i++ {
		if i >= 0 && i < h.Intervals() && h.Counts[i] > 0 {
			sum += h.Counts[i]
		}
	}
	return sum
}

func costNear(h *memhist.Histogram, lat uint64) float64 {
	idx := -1
	for i := range h.Bounds {
		lo, hi := h.Interval(i)
		if lat >= lo && (hi == 0 || lat < hi) {
			idx = i
			break
		}
	}
	if idx < 0 {
		return 0
	}
	sum := 0.0
	for i := idx - 1; i <= idx+1; i++ {
		if i >= 0 && i < h.Intervals() && h.Counts[i] > 0 {
			sum += h.Cost(i)
		}
	}
	return sum
}

func massBelow(h *memhist.Histogram, lat uint64) float64 {
	sum := 0.0
	for i := range h.Counts {
		lo, _ := h.Interval(i)
		if lo < lat && h.Counts[i] > 0 {
			sum += h.Counts[i]
		}
	}
	return sum
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Fig11 reproduces the Phasenprüfer start-up split: the ramp-up phase
// (linear footprint growth, store/alloc dominated) is separated from
// the computation phase and counters are attributed to each.
func Fig11(cfg Config) (*Report, error) {
	wl := workloads.PhasedApp{
		RampChunks:    pick(cfg, 16, 64),
		ChunkBytes:    pick(cfg, uint64(128<<10), uint64(1<<20)),
		ComputePasses: pick(cfg, 3, 6),
	}
	threads := pick(cfg, 2, minInt(4, cfg.machine().Cores()))
	e, err := exec.NewEngine(exec.Config{Machine: cfg.machine(), Threads: threads, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	pr, err := phase.Analyze(e, wl.Body(), 2, 0)
	if err != nil {
		return nil, err
	}
	rep := newReport("fig11", "Fig. 11 — Phasenprüfer phase split of a start-up workload")
	rep.printf("%s\n\n%s", wl.Name(), pr.Render())

	ramp, comp := pr.Split.Segments[0], pr.Split.Segments[1]
	rep.Metrics["ramp_slope"] = ramp.Slope
	rep.Metrics["compute_slope"] = comp.Slope
	rep.Metrics["pivot_cycle"] = float64(ramp.EndCycle)
	rep.Metrics["run_cycles"] = float64(pr.Result.Cycles)
	rep.Metrics["ramp_stores"] = float64(pr.PhaseCounts[0].Get(counters.AllStores))
	rep.Metrics["compute_loads"] = float64(pr.PhaseCounts[1].Get(counters.AllLoads))
	// Pivot accuracy: the last allocation marks the true transition.
	var lastAlloc uint64
	var peak uint64
	for _, s := range pr.Result.Footprint {
		if s.Bytes > peak {
			peak, lastAlloc = s.Bytes, s.Cycle
		}
	}
	rep.Metrics["true_pivot_cycle"] = float64(lastAlloc)
	if lastAlloc > 0 {
		rep.Metrics["pivot_error_frac"] = math.Abs(float64(ramp.EndCycle)-float64(lastAlloc)) / float64(pr.Result.Cycles)
	}
	rep.printf("\npivot at cycle %d, last allocation at cycle %d (error %.1f%% of run)\n",
		ramp.EndCycle, lastAlloc, 100*rep.Metrics["pivot_error_frac"])
	return rep, nil
}

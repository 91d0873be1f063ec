package core

import (
	"testing"

	"numaperf/internal/exec"
	"numaperf/internal/models"
	"numaperf/internal/topology"
	"numaperf/internal/workloads"
)

// The monolithic baselines must be priced from the first measured
// target run — its noise-free counters, per-core spread and thread
// count — not from a single-threaded view of noisy totals.
func TestAssessBaselinesUseFirstTruthRun(t *testing.T) {
	cfg := exec.Config{Machine: topology.TwoSocket(), Threads: 4, Seed: 5}
	family := func(p float64) workloads.Workload { return workloads.ParallelSort{Elements: int(p)} }
	const target = 16384
	a, err := Assess(Spec{
		Family:        family,
		Config:        cfg,
		ParamName:     "elements",
		Train:         []float64{2048, 4096, 6144, 8192},
		Target:        target,
		Reps:          2,
		MaxIndicators: 4,
		Workers:       2,
	})
	if err != nil {
		t.Fatal(err)
	}

	e, err := exec.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := e.Run(family(target).Body())
	if err != nil {
		t.Fatal(err)
	}
	want := models.Characterize(first)
	if a.Char != want {
		t.Fatalf("characterisation %+v, want the first truth run's %+v", a.Char, want)
	}
	if a.Char.Threads != 4 {
		t.Errorf("baselines characterised as %d threads, want 4", a.Char.Threads)
	}
	if a.Char.Imbalance == 1 {
		t.Errorf("imbalance is exactly 1: per-core counters were not used")
	}
	if a.Actual <= 0 {
		t.Errorf("truth: mean %g cycles", a.Actual)
	}
	all := models.All()
	if len(a.Baselines) != len(all) {
		t.Fatalf("%d baselines, want %d", len(a.Baselines), len(all))
	}
	for i, m := range all {
		if b := a.Baselines[i]; b.Name != m.Name() || b.Cycles != m.PredictCycles(want, cfg.Machine) {
			t.Errorf("baseline %s = %g, want %s priced on the first truth run", b.Name, b.Cycles, m.Name())
		}
	}
}

package main

import (
	"testing"

	"numaperf/internal/core"
	"numaperf/internal/counters"
	"numaperf/internal/models"
)

// The monolithic baselines must be priced at the thread count the
// truth was measured with, not as a single-threaded run.
func TestResultOfCarriesThreadCount(t *testing.T) {
	counts := counters.NewCounts()
	counts[counters.LockLoads] = 64
	pts := []core.TrainingPoint{{Param: 1, Counts: counts, Cycles: 1000}}
	for _, threads := range []int{1, 4} {
		char := models.Characterize(resultOf(pts, threads))
		if char.Threads != threads {
			t.Errorf("-threads %d: characterised as %d threads", threads, char.Threads)
		}
		if want := 64 / float64(threads); char.Supersteps != want {
			t.Errorf("-threads %d: %g supersteps, want %g", threads, char.Supersteps, want)
		}
	}
}

package campaign

import (
	"fmt"
	"reflect"
	"testing"

	"numaperf/internal/counters"
	"numaperf/internal/exec"
	"numaperf/internal/perf"
	"numaperf/internal/topology"
	"numaperf/internal/workloads"
)

// TestRunnerMatchesMeasure is the equivalence the single measurement
// path rests on: a one-point campaign seeded S yields exactly the
// Measurement perf.Measure takes on one engine seeded S+1. Cell i runs
// a fresh engine seeded S+i+1, and run j+1 of a persistent engine
// seeded S+1 reproduces a fresh engine seeded S+1+j.
func TestRunnerMatchesMeasure(t *testing.T) {
	// Two register batches of core events, two of uncore events, and
	// the fixed and software events every run can read.
	var events []counters.EventID
	for _, d := range []struct {
		domain counters.Domain
		n      int
	}{{counters.DomainFixed, 2}, {counters.DomainCore, 6}, {counters.DomainUncore, 5}, {counters.DomainSoftware, 1}} {
		events = append(events, counters.ByDomain(d.domain)[:d.n]...)
	}
	cases := []struct {
		name    string
		threads int
		body    func() func(*exec.Thread)
	}{
		{"cachemiss-b", 1, workloads.CacheMissB(128).Body},
		{"parallelsort", 4, workloads.ParallelSort{Elements: 1 << 11}.Body},
		{"triad", 2, workloads.Triad{Elements: 1 << 11}.Body},
	}
	for _, mode := range []perf.Mode{perf.Batched, perf.Unlimited, perf.Multiplexed} {
		for _, tc := range cases {
			for _, seed := range []int64{1, 40} {
				cfg := exec.Config{Machine: topology.TwoSocket(), Threads: tc.threads}
				ref := cfg
				ref.Seed = seed + 1
				e, err := exec.NewEngine(ref)
				if err != nil {
					t.Fatal(err)
				}
				want, err := perf.Measure(e, tc.body(), events, 2, mode)
				if err != nil {
					t.Fatal(err)
				}
				for _, conc := range []int{1, 4} {
					t.Run(fmt.Sprintf("%s/%s/seed=%d/concurrency=%d", mode, tc.name, seed, conc), func(t *testing.T) {
						r := Library(Spec{
							Points: []Point{EnginePoint(1, cfg, tc.body)},
							Events: events, Reps: 2, Mode: mode, Seed: seed,
						})
						r.Opts.Concurrency = conc
						rep, err := r.Run()
						if err != nil {
							t.Fatal(err)
						}
						if got := rep.Points[0].M; !reflect.DeepEqual(got, want) {
							t.Errorf("campaign measurement differs from perf.Measure:\ngot  %+v\nwant %+v", *got, *want)
						}
					})
				}
			}
		}
	}
}

package core

import (
	"fmt"
	"time"

	"numaperf/internal/campaign"
	"numaperf/internal/exec"
	"numaperf/internal/models"
	"numaperf/internal/topology"
	"numaperf/internal/workloads"
)

// Spec is one two-step assessment: train on the Train sizes of Family
// on Config's machine, optionally re-learn the cost model on Transfer
// (which then also hosts the target), and predict and measure Target.
// Every collected size runs Reps times on a fresh engine built from
// Config, as one cell of its phase on campaign.InOrder: Workers cells at
// once, each supervised by RunTimeout and MaxRetries (0 disables either)
// with backoff seeded Config.Seed plus the cell's index. The outcome is
// identical at any Workers.
type Spec struct {
	Family                       func(param float64) workloads.Workload
	Config                       exec.Config
	Transfer                     *topology.Machine
	ParamName                    string
	Train                        []float64
	Target                       float64
	Reps, MaxIndicators, Workers int
	RunTimeout                   time.Duration
	MaxRetries                   int
}

// Baseline is a monolithic model's cycle prediction for the target.
type Baseline struct {
	Name   string
	Cycles float64
}

// Assessment is the outcome of Assess. Strategy is Source, or Source
// transferred; Machine is where the target was measured and the
// baselines priced. Char characterises the first target run from its
// noise-free and per-core counters and its thread count: all that the
// Baselines get to see.
type Assessment struct {
	Source, Strategy  *Strategy
	Machine           *topology.Machine
	Predicted, Actual float64 // Actual is the mean of the Reps target runs
	Retried           int     // attempts beyond each collected size's first
	Char              models.Characterization
	Baselines         []Baseline
}

// Assess runs the two-step pipeline of Section III: collect training
// points, Build the strategy, optionally collect calibration points on
// Spec.Transfer and Transfer the strategy, collect the truth at the
// target, predict it, and price the models.All() baselines. Errors name
// the phase that failed.
func Assess(s Spec) (*Assessment, error) {
	a := &Assessment{Machine: s.Config.Machine}
	phase := func(name string, m *topology.Machine, sizes []float64) ([]TrainingPoint, *exec.Result, error) {
		pts, first, retried, err := collect(sizes, s.Reps, s.Workers, func(i int) *campaign.Supervisor {
			return campaign.NewSupervisor(s.RunTimeout, s.MaxRetries, s.Config.Seed+int64(i))
		}, func(p float64) (*exec.Engine, func(*exec.Thread), error) {
			cfg := s.Config
			cfg.Machine = m
			e, err := exec.NewEngine(cfg)
			if err != nil {
				return nil, nil, err
			}
			return e, s.Family(p).Body(), nil
		})
		a.Retried += retried
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", name, err)
		}
		return pts, first, nil
	}

	train, _, err := phase("training", s.Config.Machine, s.Train)
	if err != nil {
		return nil, err
	}
	if a.Source, err = Build(train, s.ParamName, s.MaxIndicators); err != nil {
		return nil, fmt.Errorf("building strategy: %w", err)
	}
	a.Strategy = a.Source
	if s.Transfer != nil {
		a.Machine = s.Transfer
		calib, _, err := phase("calibration", a.Machine, s.Train)
		if err != nil {
			return nil, err
		}
		if a.Strategy, err = a.Source.Transfer(calib); err != nil {
			return nil, fmt.Errorf("transfer: %w", err)
		}
	}
	truth, first, err := phase("measuring target", a.Machine, []float64{s.Target})
	if err != nil {
		return nil, err
	}
	for _, p := range truth {
		a.Actual += p.Cycles
	}
	a.Actual /= float64(len(truth))
	a.Predicted = a.Strategy.PredictCycles(s.Target)
	a.Char = models.Characterize(first)
	for _, b := range models.All() {
		a.Baselines = append(a.Baselines, Baseline{b.Name(), b.PredictCycles(a.Char, a.Machine)})
	}
	return a, nil
}

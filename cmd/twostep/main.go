// Command twostep runs the paper's two-step performance assessment
// strategy end to end: measure a workload family at small sizes,
// select indicators, fit code→indicator extrapolation models and the
// indicator→cost model, then predict the cost of a larger target size
// and compare against the measured truth and the monolithic baselines.
// With -transfer the cost model is re-calibrated on a second machine.
//
// Usage:
//
//	twostep -family triad -train 65536,98304,131072,196608 -target 1048576
//	twostep -family chase -train 4096,8192,16384 -target 65536 -transfer 2s
//	twostep -family sort -train 65536,131072,262144 -target 1048576 -parallel 4
//
// The monolithic baselines are priced from the first measured target
// run. -parallel N measures up to N sizes of a collection phase at
// once, each on its own engine, with output identical to -parallel 1.
// -run-timeout and -max-retries supervise each size as a campaign cell,
// with backoff seeded -seed plus the size's index.
//
// With -strict the command exits nonzero after printing the report
// whenever the strategy was built from degraded data — training rows
// dropped for non-finite cycles, collinear indicator columns removed or
// ridge-regularised — or the prediction itself is non-finite. The
// caveats are always printed either way; -strict only changes the exit
// status so scripts can gate on prediction trustworthiness.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"numaperf/internal/campaign"
	"numaperf/internal/core"
	"numaperf/internal/exec"
	"numaperf/internal/topology"
	"numaperf/internal/workloads"
)

// families maps a family name to a parameterised workload constructor.
var families = map[string]func(param float64) workloads.Workload{
	"triad": func(p float64) workloads.Workload { return workloads.Triad{Elements: int(p)} },
	"chase": func(p float64) workloads.Workload {
		return workloads.PointerChase{Lines: uint64(p), Hops: int(4 * p)}
	},
	"sort": func(p float64) workloads.Workload { return workloads.ParallelSort{Elements: int(p)} },
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process-global parts so tests can drive it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("twostep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		family   = fs.String("family", "triad", "workload family: triad, chase, sort")
		trainCSV = fs.String("train", "65536,98304,131072,196608,262144", "training sizes")
		target   = fs.Float64("target", 1048576, "size to predict")
		reps     = fs.Int("reps", 2, "runs per training size")
		machine  = fs.String("machine", "dl580", "machine: dl580, 2s, 8s, uma")
		transfer = fs.String("transfer", "", "re-calibrate the cost model on this machine")
		maxInd   = fs.Int("indicators", 4, "maximum indicator count")
		threads  = fs.Int("threads", 1, "thread count")
		seed     = fs.Int64("seed", 1, "noise seed")
		runTO    = fs.Duration("run-timeout", campaign.DefaultRunTimeout, "wall-clock budget per collected size (0 = none)")
		maxRetry = fs.Int("max-retries", campaign.DefaultMaxRetries, "retries per collected size on transient failure (0 = none)")
		parallel = fs.Int("parallel", 1, "training sizes measured concurrently; results are identical at any setting")
		strict   = fs.Bool("strict", false, "exit nonzero when the strategy carries hard data-quality caveats")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	failf := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "twostep: "+format+"\n", args...)
		return 1
	}

	mk, ok := families[*family]
	if !ok {
		return failf("unknown family %q", *family)
	}
	mach, ok := topology.ByName(*machine)
	if !ok {
		return failf("unknown machine %q (have %v)", *machine, topology.MachineNames())
	}
	var tm *topology.Machine
	if *transfer != "" {
		if tm, ok = topology.ByName(*transfer); !ok {
			return failf("unknown transfer machine %q", *transfer)
		}
	}
	var trainSizes []float64
	for _, s := range strings.Split(*trainCSV, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return failf("bad training size %q: %v", s, err)
		}
		trainSizes = append(trainSizes, v)
	}

	fmt.Fprintf(stdout, "training %s on %s at sizes %v (%d reps)\n", *family, mach.Name, trainSizes, *reps)
	a, err := core.Assess(core.Spec{
		Family:        mk,
		Config:        exec.Config{Machine: mach, Threads: *threads, Seed: *seed},
		Transfer:      tm,
		ParamName:     "size",
		Train:         trainSizes,
		Target:        *target,
		Reps:          *reps,
		MaxIndicators: *maxInd,
		Workers:       *parallel,
		RunTimeout:    *runTO,
		MaxRetries:    *maxRetry,
	})
	if err != nil {
		return failf("%v", err)
	}
	if a.Retried > 0 {
		fmt.Fprintf(stderr, "twostep: collection needed %d retries\n", a.Retried)
	}
	fmt.Fprintf(stdout, "\n%s\n", a.Source.String())
	if tm != nil {
		fmt.Fprintf(stdout, "re-calibrating the cost model on %s\n", tm.Name)
	}

	actual := a.Actual
	fmt.Fprintf(stdout, "\npredicting size %.0f on %s:\n", *target, a.Machine.Name)
	fmt.Fprintf(stdout, "%-14s %14.4g cycles  error %6.1f%%\n", "two-step", a.Predicted, 100*relErr(a.Predicted, actual))
	fmt.Fprintf(stdout, "%-14s %14.4g cycles  (measured, %d runs)\n", "actual", actual, *reps)

	fmt.Fprintln(stdout, "\nmonolithic baselines (no counter access):")
	for _, b := range a.Baselines {
		fmt.Fprintf(stdout, "%-14s %14.4g cycles  error %6.1f%%\n", b.Name, b.Cycles, 100*relErr(b.Cycles, actual))
	}

	if *strict {
		switch {
		case a.Strategy.HardDegraded():
			return failf("-strict: strategy carries hard data-quality caveats (see report above)")
		case math.IsNaN(a.Predicted) || math.IsInf(a.Predicted, 0):
			return failf("-strict: prediction is non-finite (%g)", a.Predicted)
		}
	}
	return 0
}

func relErr(pred, actual float64) float64 {
	if actual == 0 {
		return 0
	}
	return math.Abs(pred-actual) / actual
}

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
// -parallel N measures up to N training sizes of a collection phase
// concurrently, each on its own engine; the fitted models and the
// report are identical to -parallel 1.
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
	"math"
	"os"
	"strconv"
	"strings"

	"numaperf/internal/campaign"
	"numaperf/internal/core"
	"numaperf/internal/exec"
	"numaperf/internal/models"
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
	var (
		family   = flag.String("family", "triad", "workload family: triad, chase, sort")
		trainCSV = flag.String("train", "65536,98304,131072,196608,262144", "training sizes")
		target   = flag.Float64("target", 1048576, "size to predict")
		reps     = flag.Int("reps", 2, "runs per training size")
		machine  = flag.String("machine", "dl580", "machine: dl580, 2s, 8s, uma")
		transfer = flag.String("transfer", "", "re-calibrate the cost model on this machine")
		maxInd   = flag.Int("indicators", 4, "maximum indicator count")
		threads  = flag.Int("threads", 1, "thread count")
		seed     = flag.Int64("seed", 1, "noise seed")
		runTO    = flag.Duration("run-timeout", campaign.DefaultRunTimeout, "wall-clock budget per collection phase (0 = none)")
		maxRetry = flag.Int("max-retries", campaign.DefaultMaxRetries, "retries per collection phase on transient failure (0 = none)")
		parallel = flag.Int("parallel", 1, "training sizes measured concurrently; results are identical at any setting")
		strict   = flag.Bool("strict", false, "exit nonzero when the strategy carries hard data-quality caveats")
	)
	flag.Parse()

	// Each collection phase (training, calibration, truth) runs under
	// the same supervision a campaign cell gets: wall-clock timeout,
	// panic recovery, and deterministic capped-backoff retries.
	// With -parallel N, up to N training sizes of a phase are measured
	// concurrently; every size runs on its own engine and the points are
	// reassembled in size order, so the fitted models and the report are
	// identical at any setting.
	sup := campaign.NewSupervisor(*runTO, *maxRetry, *seed)
	collect := func(phase string, sizes []float64, c func(p float64) (*exec.Engine, func(*exec.Thread), error)) []core.TrainingPoint {
		pts, attempts, err := campaign.Do(sup, func() ([]core.TrainingPoint, error) {
			return core.CollectTrainingParallel(sizes, *reps, *parallel, c)
		})
		if err != nil {
			fatalf("%s: %v", phase, err)
		}
		if attempts > 1 {
			fmt.Fprintf(os.Stderr, "twostep: %s succeeded after %d attempts\n", phase, attempts)
		}
		return pts
	}

	mk, ok := families[*family]
	if !ok {
		fatalf("unknown family %q", *family)
	}
	mach, ok := topology.ByName(*machine)
	if !ok {
		fatalf("unknown machine %q (have %v)", *machine, topology.MachineNames())
	}
	var trainSizes []float64
	for _, s := range strings.Split(*trainCSV, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			fatalf("bad training size %q: %v", s, err)
		}
		trainSizes = append(trainSizes, v)
	}

	collector := func(m *topology.Machine) func(p float64) (*exec.Engine, func(*exec.Thread), error) {
		return func(p float64) (*exec.Engine, func(*exec.Thread), error) {
			e, err := exec.NewEngine(exec.Config{Machine: m, Threads: *threads, Seed: *seed})
			if err != nil {
				return nil, nil, err
			}
			return e, mk(p).Body(), nil
		}
	}

	fmt.Printf("training %s on %s at sizes %v (%d reps)\n", *family, mach.Name, trainSizes, *reps)
	train := collect("training", trainSizes, collector(mach))
	st, err := core.Build(train, "size", *maxInd)
	if err != nil {
		fatalf("building strategy: %v", err)
	}
	fmt.Printf("\n%s\n", st.String())

	evalMach := mach
	if *transfer != "" {
		tm, ok := topology.ByName(*transfer)
		if !ok {
			fatalf("unknown transfer machine %q", *transfer)
		}
		fmt.Printf("re-calibrating the cost model on %s\n", tm.Name)
		calib := collect("calibration", trainSizes, collector(tm))
		st, err = st.Transfer(calib)
		if err != nil {
			fatalf("transfer: %v", err)
		}
		evalMach = tm
	}

	truth := collect("measuring target", []float64{*target}, collector(evalMach))
	var actual float64
	for _, p := range truth {
		actual += p.Cycles
	}
	actual /= float64(len(truth))

	pred := st.PredictCycles(*target)
	fmt.Printf("\npredicting size %.0f on %s:\n", *target, evalMach.Name)
	fmt.Printf("%-14s %14.4g cycles  error %6.1f%%\n", "two-step", pred, 100*relErr(pred, actual))
	fmt.Printf("%-14s %14.4g cycles  (measured, %d runs)\n", "actual", actual, len(truth))

	char := models.Characterize(resultOf(truth, *threads))
	fmt.Println("\nmonolithic baselines (no counter access):")
	for _, b := range models.All() {
		p := b.PredictCycles(char, evalMach)
		fmt.Printf("%-14s %14.4g cycles  error %6.1f%%\n", b.Name(), p, 100*relErr(p, actual))
	}

	if *strict {
		switch {
		case st.HardDegraded():
			fmt.Fprintln(os.Stderr, "twostep: -strict: strategy carries hard data-quality caveats (see report above)")
			os.Exit(1)
		case math.IsNaN(pred) || math.IsInf(pred, 0):
			fmt.Fprintf(os.Stderr, "twostep: -strict: prediction is non-finite (%g)\n", pred)
			os.Exit(1)
		}
	}
}

// resultOf reconstructs a minimal result view for Characterize from a
// training point measured with the given thread count (counters plus
// machine-independent fields).
func resultOf(pts []core.TrainingPoint, threads int) *exec.Result {
	p := pts[0]
	return &exec.Result{Raw: p.Counts, Cycles: uint64(p.Cycles), Threads: threads}
}

func relErr(pred, actual float64) float64 {
	if actual == 0 {
		return 0
	}
	return math.Abs(pred-actual) / actual
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "twostep: "+format+"\n", args...)
	os.Exit(1)
}

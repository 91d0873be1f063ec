package experiments

import (
	"math"

	"numaperf/internal/exec"
	"numaperf/internal/topology"
	"numaperf/internal/workloads"
)

// Transfer evaluates the cross-machine portability claim of the
// two-step strategy (Fig. 4b: indicators can be "transferred between
// different hardware"). The program-specific indicator models are
// trained on a source machine; on the target machine only the
// machine-specific indicator-to-cost model is re-learned from a few
// calibration runs. The transferred predictor is compared against
// naively applying the source cost model to the target.
func Transfer(cfg Config) (*Report, error) {
	source := topology.TwoSocket()
	// The target differs in timing, not just size: slower DRAM and a
	// slower LLC, as a DDR3-generation 4-socket box would. Without a
	// timing difference the cost model would transfer trivially.
	target := topology.DL580Gen9()
	target.Name = "Intel Xeon E7-4890 v2 (sim, slower memory)"
	target.MemLatency = target.MemLatency * 3 / 2
	target.Caches[2].LatencyCycles += 20
	targetSize := pick(cfg, 196608.0, 786432.0)
	a, err := assessTriad(cfg, source, target, targetSize)
	if err != nil {
		return nil, err
	}
	actual := a.Actual

	rep := newReport("transfer", "Cross-machine transfer of the two-step strategy (Fig. 4b)")
	rep.printf("source %s → target %s; triad family, predicting %d elements\n\n",
		source.Name, target.Name, int(targetSize))

	errMoved := math.Abs(a.Predicted-actual) / actual
	// Naive: keep the source cost model, extrapolate source indicators.
	predNaive := a.Source.PredictCycles(targetSize)
	errNaive := math.Abs(predNaive-actual) / actual

	rep.printf("%-28s %14.4g cycles  error %6.1f%%\n", "transferred (recalibrated)", a.Predicted, 100*errMoved)
	rep.printf("%-28s %14.4g cycles  error %6.1f%%\n", "source model, untransferred", predNaive, 100*errNaive)
	rep.printf("%-28s %14.4g cycles\n", "actual on target", actual)
	rep.Metrics["transferred_error"] = errMoved
	rep.Metrics["untransferred_error"] = errNaive
	rep.Metrics["indicators"] = float64(len(a.Strategy.Indicators))
	return rep, nil
}

// Topology measures remote-access cost across increasingly complex
// NUMA topologies (the outlook's "costs of remote memory accesses in
// more complex NUMA topologies"): the mlc-style dependent chase runs
// against local memory, a one-hop remote node, and — on the glueless
// 8-socket machine — the most distant node.
func Topology(cfg Config) (*Report, error) {
	chases := pick(cfg, 8_000, 60_000)
	buf := pick(cfg, uint64(4<<20), uint64(32<<20))
	rep := newReport("topology", "Remote access cost across NUMA topologies")
	rep.printf("%-28s %6s %12s %12s %8s\n", "MACHINE", "HOPS", "LOCAL c/hop", "REMOTE c/hop", "RATIO")

	type caseT struct {
		name string
		m    *topology.Machine
	}
	for _, c := range []caseT{
		{"2s", topology.TwoSocket()},
		{"dl580", topology.DL580Gen9()},
		{"8s", topology.EightSocketGlueless()},
	} {
		// Farthest node from node 0 by SLIT distance.
		far := 1
		for n := 1; n < c.m.Sockets; n++ {
			if c.m.NodeDistance(0, n) > c.m.NodeDistance(0, far) {
				far = n
			}
		}
		perHop := func(remote bool) (float64, error) {
			e, err := exec.NewEngine(exec.Config{Machine: c.m, Threads: 1, Seed: cfg.Seed})
			if err != nil {
				return 0, err
			}
			wl := workloads.MLC{BufferBytes: buf, Chases: chases, Remote: remote, RemoteNode: far}
			res, err := e.Run(wl.Body())
			if err != nil {
				return 0, err
			}
			return float64(res.Cycles) / float64(chases), nil
		}
		local, err := perHop(false)
		if err != nil {
			return nil, err
		}
		remote, err := perHop(true)
		if err != nil {
			return nil, err
		}
		ratio := remote / local
		rep.printf("%-28s %6.1f %12.1f %12.1f %8.2f\n", c.m.Model, c.m.MaxHops(), local, remote, ratio)
		rep.Metrics[c.name+"_ratio"] = ratio
	}
	return rep, nil
}

// Command perfbench is numaperf's repository benchmark. It runs one named
// workload through the public APIs of the engine, campaign and fleet
// layers for a fixed number of host seconds, checks that the simulated
// outputs are correct, and prints the end-to-end metrics (or, traced,
// the per-layer metrics) as one JSON object on its last line.
//
//	perfbench --workload fig8-engine --seed 1 --seconds 20 --trace 0
//	perfbench compare old.txt new.txt
//
// Each iteration builds everything it measures from scratch, so caches
// start empty as they do for users. Iterations repeat until the time is
// up; each metric is the median over the iterations. A traced run
// alternates untraced and traced iterations and reports per-layer
// metrics from the traced ones only. See README.md for the workloads
// and for which layer metric should move which end-to-end metric.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"numaperf/internal/counters"
)

// benchWorkloads maps each workload name to one iteration of it.
var benchWorkloads = map[string]func(*env, *trace) (*sample, error){
	"fig8-engine":    runFig8,
	"evsel-campaign": runCampaign,
	"memhist-fleet":  runFleet,
}

// env is what a workload's iterations share.
type env struct {
	seed int64
	dir  string // empty scratch directory of the current iteration
	// mlcRun is the exact work of one mlc-local run, measured once per
	// process outside every timer (memhist-fleet only).
	mlcRun *runWork
}

// sample is one iteration: set up, run the measured phase (a fresh run
// followed by a resume that replays it), and check the outputs.
type sample struct {
	setup      time.Duration // from the iteration's start to the first measured call
	fresh      time.Duration // the measured phase up to the resume
	resume     time.Duration // the replay-only resume
	allocBytes uint64        // bytes allocated during the measured phase
	peakRSS    float64       // the iteration's peak resident memory, MiB
	cells      int           // measurement cells (program runs) completed in the fresh phase
	work       runWork       // exact simulated work of the fresh phase
	attempted  int
	failed     int
	failures   []string           // failed correctness checks
	notes      []string           // failed operations of the program
	digest     string             // hash of the deterministic outputs
	layers     map[string]float64 // per-layer metrics, traced iterations only
}

func newSample() *sample {
	return &sample{work: runWork{counts: counters.NewCounts()}, layers: make(map[string]float64)}
}

// check records one correctness check.
func (s *sample) check(ok bool, format string, args ...any) {
	s.attempted++
	if !ok {
		s.failed++
		s.failures = append(s.failures, fmt.Sprintf(format, args...))
	}
}

// operations records attempted operations of the program and how many
// of them failed (retries, gaps, quarantines, re-dispatches).
func (s *sample) operations(attempted, failed int, what string) {
	s.attempted += attempted
	s.failed += failed
	if failed > 0 {
		s.notes = append(s.notes, fmt.Sprintf("%d %s", failed, what))
	}
}

func (s *sample) wall() time.Duration { return s.fresh + s.resume }

// runWork is exact simulated work: counter totals and engine chunks.
type runWork struct {
	counts counters.Counts
	chunks int64
}

// add accumulates n runs that each did the work in counts.
func (w *runWork) add(counts counters.Counts, n int) {
	for i, v := range counts {
		w.counts[i] += v * uint64(n)
	}
}

// simOps is the number of simulated loads and stores.
func (w *runWork) simOps() float64 {
	return float64(w.counts.Get(counters.AllLoads) + w.counts.Get(counters.AllStores))
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

const mib = 1 << 20

func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// resetPeakRSS lowers the kernel's peak-RSS mark of this process to its
// current resident memory, so that peakRSS reports the peak of what
// follows (Linux only; elsewhere peakRSS keeps the process's peak).
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS is the peak resident memory since the last resetPeakRSS, in
// MiB: VmHWM of /proc/self/status, or the process's lifetime peak where
// there is no such file.
func peakRSS() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if kb, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(kb, "kB")), 64); err == nil {
					return v * 1024 / mib
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / mib // Linux reports KiB
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is a run's full account, printed on a line starting "record "
// for the compare mode.
type record struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	Iterations int    `json:"iterations"`
	SimDigest  string `json:"sim_digest"`
	Host       host   `json:"host"`
	Result     result `json:"result"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fig8-engine, evsel-campaign or memhist-fleet")
	seed := fs.Int64("seed", 1, "seed of the simulated inputs")
	seconds := fs.Int("seconds", 20, "host seconds to measure for")
	traceFlag := fs.Int("trace", 0, "1 reports per-layer metrics from traced iterations")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := benchWorkloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload fig8-engine|evsel-campaign|memhist-fleet, --seconds ≥ 1, --trace 0|1\n")
		return 2
	}
	traced := *traceFlag == 1

	h := stampHost()
	fmt.Fprintf(stdout, "host cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source=%s\n",
		h.CPU, h.NProc, h.GOMAXPROCS, h.Go, h.Commit, h.Source)

	root := filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", *name, os.Getpid()))
	if err := os.MkdirAll(root, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(root)

	e := &env{seed: *seed}
	var plain, tracedSamples []*sample
	deadline := time.Now().Add(time.Duration(*seconds) * time.Second)
	for i := 0; ; i++ {
		if time.Now().After(deadline) && len(plain) >= 3 && (!traced || len(tracedSamples) >= 2) {
			break
		}
		var t *trace
		if traced && i%2 == 1 {
			t = newTrace()
		}
		e.dir = filepath.Join(root, strconv.Itoa(i))
		if err := os.MkdirAll(e.dir, 0o755); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		// Each iteration starts from a collected heap with its memory
		// returned to the OS, as a fresh process would.
		debug.FreeOSMemory()
		resetPeakRSS()
		s, err := run(e, t)
		os.RemoveAll(e.dir)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s iteration %d: %v\n", *name, i, err)
			return 1
		}
		s.peakRSS = peakRSS()
		if t != nil {
			addCommonLayers(s, t)
			tracedSamples = append(tracedSamples, s)
		} else {
			plain = append(plain, s)
		}
	}

	all := append(append([]*sample(nil), plain...), tracedSamples...)
	res := result{Metrics: make(map[string]value)}
	var failures, notes []string
	for _, s := range all {
		res.Attempted += s.attempted
		res.Failed += s.failed
		failures = append(failures, s.failures...)
		notes = append(notes, s.notes...)
	}
	// Every iteration of one seed must produce the same outputs, traced
	// or not: tracing may not change what is simulated.
	res.Attempted++
	for _, s := range all {
		if s.digest != all[0].digest {
			res.Failed++
			failures = append(failures, fmt.Sprintf("sim_digest %s differs from %s", s.digest, all[0].digest))
			break
		}
	}

	if traced {
		for _, m := range perLayer {
			res.Metrics[m.name] = value{medianOf(tracedSamples, func(s *sample) float64 { return s.layers[m.name] }), m.unit}
		}
		wall := func(s *sample) float64 { return s.wall().Seconds() }
		res.Metrics["trace_overhead_frac"] = value{medianOf(tracedSamples, wall)/medianOf(plain, wall) - 1, "ratio"}
	} else {
		for _, m := range endToEnd {
			res.Metrics[m.name] = value{medianOf(plain, func(s *sample) float64 { return s.endToEnd()[m.name] }), m.unit}
		}
	}
	for name, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			res.Metrics[name] = value{0, v.Unit}
			failures = append(failures, fmt.Sprintf("metric %s is not finite", name))
		}
	}
	res.Correct = len(failures) == 0

	fmt.Fprintf(stdout, "sim_digest %s seed=%d %s\n", *name, *seed, all[0].digest)
	if res.Correct {
		fmt.Fprintf(stdout, "check ok: %d iterations, %d checks and operations, %d failed\n", len(all), res.Attempted, res.Failed)
	} else {
		fmt.Fprintf(stdout, "check FAILED: %s\n", strings.Join(failures, "; "))
	}
	if len(notes) > 0 {
		fmt.Fprintf(stdout, "failed operations: %s\n", strings.Join(notes, "; "))
	}
	for _, table := range [][]metric{endToEnd, perLayer} {
		for _, m := range table {
			if v, ok := res.Metrics[m.name]; ok {
				fmt.Fprintf(stdout, "  %-28s %14.6g %s\n", m.name, v.Value, v.Unit)
			}
		}
	}
	rec := record{Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *traceFlag,
		Iterations: len(all), SimDigest: all[0].digest, Host: h, Result: res}
	line, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "record %s\n", line)
	last, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", last)
	return 0
}

func medianOf(ss []*sample, f func(*sample) float64) float64 {
	vs := make([]float64, len(ss))
	for i, s := range ss {
		vs[i] = f(s)
	}
	return median(vs)
}

// endToEnd is the sample's value of every end-to-end metric.
func (s *sample) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":        s.setup.Seconds(),
		"wall_s":         s.wall().Seconds(),
		"sim_mops_per_s": s.work.simOps() / s.fresh.Seconds() / 1e6,
		"cells_per_s":    float64(s.cells) / s.fresh.Seconds(),
		"resume_s":       s.resume.Seconds(),
		"alloc_mb":       float64(s.allocBytes) / mib,
		"max_rss_mb":     s.peakRSS,
	}
}

// addCommonLayers fills the per-layer metrics every workload derives
// the same way: exact simulated work, engine construction, the journal
// and the probe network.
func addCommonLayers(s *sample, t *trace) {
	l := s.layers
	c := s.work.counts
	l["memsim.accesses"] = s.work.simOps()
	l["memsim.l1_miss"] = float64(c.Get(counters.L1Miss))
	l["memsim.l2_miss"] = float64(c.Get(counters.L2Miss))
	l["memsim.l3_miss"] = float64(c.Get(counters.L3Miss))
	l["memsim.dtlb_walks"] = float64(c.Get(counters.DTLBLoadMissWalk) + c.Get(counters.DTLBStoreMissWalk))
	l["memsim.l2_pf_requests"] = float64(c.Get(counters.L2PFRequests))

	l["exec.chunks"] = float64(s.work.chunks)
	l["exec.runs"] = float64(s.cells)
	l["exec.new_engine_ms_p50"] = t.quantile("exec.new_engine", 0.5) / 1e6
	l["exec.new_engine_mb"] = t.quantile("exec.new_engine_bytes", 0.5) / mib

	wall := float64(s.wall())
	l["journal.appends"] = float64(t.n("journal.write"))
	l["journal.bytes"] = t.count("journal.bytes")
	l["journal.syncs"] = float64(t.n("journal.fsync"))
	l["journal.write_us_p50"] = t.quantile("journal.write", 0.5) / 1e3
	l["journal.fsync_us_p50"] = t.quantile("journal.fsync", 0.5) / 1e3
	l["journal.fsync_us_p90"] = t.quantile("journal.fsync", 0.9) / 1e3
	l["journal.fsync_share"] = t.sum("journal.fsync") / wall
	l["journal.read_ms"] = t.sum("journal.read") / 1e6

	l["probenet.bytes_in"] = t.count("probenet.bytes_in")
	l["probenet.bytes_out"] = t.count("probenet.bytes_out")
	l["probenet.writes"] = float64(t.n("probenet.write"))
	l["probenet.write_us_p50"] = t.quantile("probenet.write", 0.5) / 1e3
}

// Package numaperf reproduces "Assessing NUMA Performance Based on
// Hardware Event Counters" (Plauth, Sterz, Eberhardt, Feinbube, Polze —
// IPDPSW 2017) as a self-contained Go library: a deterministic NUMA
// machine simulator that exposes Haswell-style hardware event counters,
// a perf-like measurement layer with register batching and PEBS
// load-latency sampling, and the paper's three tools — EvSel (compare
// runs and correlate parameters with counters), Memhist (latency-cost
// histograms) and Phasenprüfer (phase detection by segmented regression
// on the memory footprint) — plus the two-step code→indicator→cost
// strategy and the classic monolithic cost-model baselines.
//
// The Session type is the front door:
//
//	s, _ := numaperf.NewSession(numaperf.WithMachineName("dl580"))
//	cmp, _ := s.Compare(numaperf.CacheMissA(1024), numaperf.CacheMissB(1024), 3)
//	fmt.Print(cmp.Render())
package numaperf

import (
	"errors"
	"fmt"

	"numaperf/internal/campaign"
	"numaperf/internal/core"
	"numaperf/internal/counters"
	"numaperf/internal/evsel"
	"numaperf/internal/exec"
	"numaperf/internal/memhist"
	"numaperf/internal/metrics"
	"numaperf/internal/models"
	"numaperf/internal/oslite"
	"numaperf/internal/perf"
	"numaperf/internal/phase"
	"numaperf/internal/profile"
	"numaperf/internal/topology"
	"numaperf/internal/workloads"
)

// Re-exported types so callers never import internal packages.
type (
	// Machine describes a simulated NUMA system.
	Machine = topology.Machine
	// EventID identifies a hardware event.
	EventID = counters.EventID
	// Counts is a vector of event totals.
	Counts = counters.Counts
	// Result is the outcome of one run.
	Result = exec.Result
	// Thread is the handle workload bodies receive.
	Thread = exec.Thread
	// Workload is a runnable program.
	Workload = workloads.Workload
	// Measurement holds per-event samples over repeated runs.
	Measurement = perf.Measurement
	// Mode selects how the PMU register budget is satisfied.
	Mode = perf.Mode
	// Comparison is EvSel's two-run comparison.
	Comparison = evsel.Comparison
	// Sweep is EvSel's parameter sweep.
	Sweep = evsel.Sweep
	// Correlation relates a counter to a swept parameter.
	Correlation = evsel.Correlation
	// MultiComparison is EvSel's k-way (ANOVA) comparison.
	MultiComparison = evsel.MultiComparison
	// Histogram is Memhist's latency histogram.
	Histogram = memhist.Histogram
	// HistogramOptions configures Memhist collection.
	HistogramOptions = memhist.Options
	// HistogramMode selects occurrences vs cost weighting.
	HistogramMode = memhist.Mode
	// PhaseReport is Phasenprüfer's analysis result.
	PhaseReport = phase.Report
	// Strategy is a trained two-step predictor.
	Strategy = core.Strategy
	// TrainingPoint is one two-step training observation.
	TrainingPoint = core.TrainingPoint
	// CostBaseline is a monolithic cost model (PRAM, BSP, ...).
	CostBaseline = models.Model
	// RegionProfile is the per-code-region event attribution.
	RegionProfile = exec.RegionProfile
	// RegionDelta is one row of a per-region comparison.
	RegionDelta = profile.DeltaRow
	// MetricValue is one derived metric (IPC, MPKI, bandwidth, ...).
	MetricValue = metrics.Value
	// Characterization is the abstract workload view baselines consume.
	Characterization = models.Characterization
)

// Histogram modes.
const (
	// Occurrences counts events per latency interval (Fig. 10a).
	Occurrences = memhist.Occurrences
	// CostWeighted weights intervals by latency (Fig. 10b).
	CostWeighted = memhist.Costs
)

// Measurement modes.
const (
	// Batched repeats runs with one register batch each (EvSel's way).
	Batched = perf.Batched
	// Multiplexed time-shares registers within a run (perf's default).
	Multiplexed = perf.Multiplexed
	// Unlimited ignores the register budget (simulation-only shortcut).
	Unlimited = perf.Unlimited
)

// Predefined machines.
var (
	// DL580Gen9 is the paper's Table I testbed.
	DL580Gen9 = topology.DL580Gen9
	// TwoSocket is a smaller dual-socket server.
	TwoSocket = topology.TwoSocket
	// EightSocketGlueless has a multi-hop topology.
	EightSocketGlueless = topology.EightSocketGlueless
	// UMA is the single-socket baseline.
	UMA = topology.UMA
)

// Workload constructors (see internal/workloads for parameters).
var (
	// CacheMissA is Listing 1 (row-major, cache friendly).
	CacheMissA = workloads.CacheMissA
	// CacheMissB is Listing 2 (column-major, cache hostile).
	CacheMissB = workloads.CacheMissB
)

// ParallelSort returns the Listing 3 workload (LCG fill + parallel
// merge sort); elements ≤ 0 selects the paper's 1 Mi.
func ParallelSort(elements int) Workload { return workloads.ParallelSort{Elements: elements} }

// SIFT returns the NUMA-optimised image-pyramid workload of Fig. 10a.
func SIFT(width, height, octaves int) Workload {
	return workloads.SIFT{Width: width, Height: height, Octaves: octaves}
}

// MLCLocal returns the mlc-like pointer chase on local memory.
func MLCLocal(bufferBytes uint64, chases int) Workload {
	return workloads.MLC{BufferBytes: bufferBytes, Chases: chases}
}

// MLCRemote returns the mlc-like pointer chase forced onto a remote
// node (the Fig. 10b inducer).
func MLCRemote(bufferBytes uint64, chases int) Workload {
	return workloads.MLC{BufferBytes: bufferBytes, Chases: chases, Remote: true}
}

// PhasedApp returns the ramp-up + computation workload of Fig. 11.
func PhasedApp(rampChunks int, chunkBytes uint64, computePasses int) Workload {
	return workloads.PhasedApp{RampChunks: rampChunks, ChunkBytes: chunkBytes, ComputePasses: computePasses}
}

// BSPApp returns the multi-superstep staircase for k-phase detection.
func BSPApp(supersteps int, stepBytes uint64, passes int) Workload {
	return workloads.BSPApp{Supersteps: supersteps, StepBytes: stepBytes, Passes: passes}
}

// Triad returns the STREAM-style kernel family used by the two-step
// strategy experiments.
func Triad(elements int) Workload { return workloads.Triad{Elements: elements} }

// PointerChase returns the dependent-load latency workload.
func PointerChase(lines uint64, hops int) Workload {
	return workloads.PointerChase{Lines: lines, Hops: hops}
}

// funcWorkload adapts a plain function to the Workload interface.
type funcWorkload struct {
	name string
	body func(*Thread)
}

func (f funcWorkload) Name() string          { return f.name }
func (f funcWorkload) Body() func(t *Thread) { return f.body }

// NewWorkload wraps a custom thread body as a Workload, the hook for
// measuring user-defined programs.
func NewWorkload(name string, body func(*Thread)) Workload {
	return funcWorkload{name: name, body: body}
}

// WorkloadByName resolves a registered workload name.
func WorkloadByName(name string) (Workload, bool) { return workloads.ByName(name) }

// WorkloadNames lists the registered workloads.
func WorkloadNames() []string { return workloads.Names() }

// LookupEvent resolves an event name to its ID.
func LookupEvent(name string) (EventID, bool) { return counters.Lookup(name) }

// EventNames lists all events of the platform database.
func EventNames() []string { return counters.Names() }

// AllEvents returns every event ID.
func AllEvents() []EventID {
	out := make([]EventID, counters.NumEvents)
	for i := range out {
		out[i] = EventID(i)
	}
	return out
}

// Baselines returns the monolithic cost models with default parameters.
func Baselines() []CostBaseline { return models.All() }

// RenderRegions formats a run's per-region profile (the event-to-code
// mapping); workloads opt in by calling Thread.Begin / Thread.End.
func RenderRegions(res *Result, topEvents int) (string, error) {
	return profile.Render(res, topEvents)
}

// CompareRegions contrasts two runs region by region for the given
// events, localising where counter changes come from.
func CompareRegions(a, b *Result, events []EventID, minRel float64) ([]RegionDelta, error) {
	return profile.Compare(a, b, events, minRel)
}

// RenderRegionDeltas formats a region comparison.
func RenderRegionDeltas(rows []RegionDelta) string { return profile.RenderCompare(rows) }

// Metrics derives the analyst-level indicators (IPC, MPKI, locality,
// bandwidths, power) from a run.
func Metrics(res *Result) []MetricValue {
	return metrics.Compute(res.Total, res.Machine, res.Seconds)
}

// MetricByName picks one derived metric from a computed set.
func MetricByName(vals []MetricValue, name string) (MetricValue, bool) {
	return metrics.ByName(vals, name)
}

// RenderMetrics formats derived metrics as a table.
func RenderMetrics(vals []MetricValue) string { return metrics.Render(vals) }

// Characterize derives the abstract workload description baselines
// consume from a run result.
func Characterize(res *Result) Characterization { return models.Characterize(res) }

// Session is a configured measurement context: one machine, one thread
// team shape, one placement policy.
type Session struct {
	cfg exec.Config
}

// Option configures a Session.
type Option func(*Session) error

// WithMachine uses an explicit machine description.
func WithMachine(m *Machine) Option {
	return func(s *Session) error {
		if m == nil {
			return errors.New("numaperf: nil machine")
		}
		s.cfg.Machine = m
		return nil
	}
}

// WithMachineName selects a predefined machine ("dl580", "2s", "8s",
// "uma").
func WithMachineName(name string) Option {
	return func(s *Session) error {
		m, ok := topology.ByName(name)
		if !ok {
			return fmt.Errorf("numaperf: unknown machine %q (have %v)", name, topology.MachineNames())
		}
		s.cfg.Machine = m
		return nil
	}
}

// WithThreads sets the team size.
func WithThreads(n int) Option {
	return func(s *Session) error {
		s.cfg.Threads = n
		return nil
	}
}

// WithSeed sets the measurement-noise seed.
func WithSeed(seed int64) Option {
	return func(s *Session) error {
		s.cfg.Seed = seed
		return nil
	}
}

// WithoutNoise disables measurement noise (simulation-only).
func WithoutNoise() Option {
	return func(s *Session) error {
		s.cfg.Noise = -1
		return nil
	}
}

// WithInterleave places pages round-robin across nodes.
func WithInterleave() Option {
	return func(s *Session) error {
		s.cfg.Policy = oslite.Interleave
		return nil
	}
}

// WithBindNode homes all pages on one node.
func WithBindNode(node int) Option {
	return func(s *Session) error {
		s.cfg.Policy = oslite.Bind
		s.cfg.BindNode = node
		return nil
	}
}

// WithScatter pins threads round-robin across sockets instead of
// filling sockets in order.
func WithScatter() Option {
	return func(s *Session) error {
		s.cfg.Mapping = exec.Scatter
		return nil
	}
}

// NewSession builds a session; the default is the paper's DL580 with
// one thread, first-touch placement and compact pinning.
func NewSession(opts ...Option) (*Session, error) {
	s := &Session{cfg: exec.Config{Machine: topology.DL580Gen9(), Threads: 1}}
	for _, o := range opts {
		if err := o(s); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Machine returns the session's machine.
func (s *Session) Machine() *Machine { return s.cfg.Machine }

// engine builds a fresh engine for this session.
func (s *Session) engine() (*exec.Engine, error) { return exec.NewEngine(s.cfg) }

// Run executes the workload once.
func (s *Session) Run(w Workload) (*Result, error) {
	e, err := s.engine()
	if err != nil {
		return nil, err
	}
	return e.Run(w.Body())
}

// point is the campaign point measuring w on a team of the given size.
func (s *Session) point(param float64, threads int, w Workload) campaign.Point {
	cfg := s.cfg
	cfg.Threads = threads
	return campaign.EnginePoint(param, cfg, w.Body)
}

// runner is the campaign behind every Session measurement, seeded by
// the session: cell i measures on a fresh engine seeded Seed+i+1.
func (s *Session) runner(paramName string, points []campaign.Point, events []EventID, reps int, mode Mode) *campaign.Runner {
	return campaign.Library(campaign.Spec{ParamName: paramName, Points: points,
		Events: events, Reps: reps, Mode: mode, Seed: s.cfg.Seed})
}

// Measure collects reps samples per event for the workload.
func (s *Session) Measure(w Workload, events []EventID, reps int, mode Mode) (*Measurement, error) {
	rep, err := s.runner("threads", []campaign.Point{s.point(float64(s.cfg.Threads), s.cfg.Threads, w)},
		events, reps, mode).Run()
	if err != nil {
		return nil, err
	}
	return rep.Points[0].M, nil
}

// MeasureAll measures the entire event database, EvSel style.
func (s *Session) MeasureAll(w Workload, reps int, mode Mode) (*Measurement, error) {
	return s.Measure(w, AllEvents(), reps, mode)
}

// Compare measures two workloads over all events with register
// batching and compares them per event (EvSel's run comparison).
func (s *Session) Compare(a, b Workload, reps int) (*Comparison, error) {
	return s.CompareEvents(a, b, AllEvents(), reps, Batched)
}

// CompareEvents is Compare with an explicit event set and mode.
func (s *Session) CompareEvents(a, b Workload, events []EventID, reps int, mode Mode) (*Comparison, error) {
	points := []campaign.Point{s.point(0, s.cfg.Threads, a), s.point(1, s.cfg.Threads, b)}
	cmp, _, err := evsel.CompareRun(s.runner("workload", points, events, reps, mode))
	return cmp, err
}

// CompareMany measures the workload under every supplied thread count
// and tests, per event, whether the configurations share a common mean
// (one-way ANOVA with Bonferroni correction) — EvSel generalised from
// run pairs to whole configuration series.
func (s *Session) CompareMany(w Workload, threadCounts []int, events []EventID,
	reps int, mode Mode) (*MultiComparison, error) {
	var points []campaign.Point
	var labels []string
	for _, tc := range threadCounts {
		points = append(points, s.point(float64(tc), tc, w))
		labels = append(labels, fmt.Sprintf("T=%d", tc))
	}
	rep, err := s.runner("threads", points, events, reps, mode).Run()
	if err != nil {
		return nil, err
	}
	ms := make([]*perf.Measurement, len(rep.Points))
	for i, p := range rep.Points {
		ms[i] = p.M
	}
	return evsel.CompareMany(labels, ms...)
}

// SweepThreads varies the team size and correlates every event with
// the thread count (the Fig. 9 experiment shape).
func (s *Session) SweepThreads(mk func(threads int) Workload, threadCounts []int,
	events []EventID, reps int, mode Mode) (*Sweep, error) {
	var points []campaign.Point
	for _, tc := range threadCounts {
		points = append(points, s.point(float64(tc), tc, mk(tc)))
	}
	sw, _, err := evsel.NewSweep(s.runner("threads", points, events, reps, mode))
	return sw, err
}

// LatencyHistogram measures the workload's load-latency histogram by
// threshold cycling (Memhist's production path).
func (s *Session) LatencyHistogram(w Workload, opts HistogramOptions) (*Histogram, error) {
	e, err := s.engine()
	if err != nil {
		return nil, err
	}
	h, err := memhist.Collect(e, w.Body(), opts)
	if err != nil {
		return nil, err
	}
	h.Source = w.Name()
	return h, nil
}

// ExactLatencyHistogram builds the ground-truth histogram from
// full-information sampling.
func (s *Session) ExactLatencyHistogram(w Workload, bounds []uint64) (*Histogram, error) {
	e, err := s.engine()
	if err != nil {
		return nil, err
	}
	h, err := memhist.Exact(e, w.Body(), bounds, 1)
	if err != nil {
		return nil, err
	}
	h.Source = w.Name()
	return h, nil
}

// Phases runs the workload with time-sliced counters and splits it
// into k phases from the memory footprint (Phasenprüfer); k = 0 picks
// the phase count automatically by BIC.
func (s *Session) Phases(w Workload, k int) (*PhaseReport, error) {
	e, err := s.engine()
	if err != nil {
		return nil, err
	}
	return phase.Analyze(e, w.Body(), k, 0)
}

// TrainTwoStep trains the two-step strategy on a workload family over
// the given parameter values.
func (s *Session) TrainTwoStep(family func(param float64) Workload, params []float64,
	reps, maxIndicators int) (*Strategy, error) {
	pts, err := s.CollectTraining(family, params, reps)
	if err != nil {
		return nil, err
	}
	return core.Build(pts, "param", maxIndicators)
}

// CollectTraining gathers two-step training points for a workload
// family.
func (s *Session) CollectTraining(family func(param float64) Workload, params []float64,
	reps int) ([]TrainingPoint, error) {
	cfg := s.cfg
	return core.CollectTraining(params, reps, 1,
		func(p float64) (*exec.Engine, func(*exec.Thread), error) {
			e, err := exec.NewEngine(cfg)
			if err != nil {
				return nil, nil, err
			}
			return e, family(p).Body(), nil
		})
}

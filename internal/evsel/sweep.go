package evsel

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"numaperf/internal/campaign"
	"numaperf/internal/counters"
	"numaperf/internal/perf"
	"numaperf/internal/stats"
)

// SweepPoint is one parameter setting with its measurement.
type SweepPoint struct {
	Param float64
	M     *perf.Measurement
}

// Sweep is a series of measurements across an input-parameter range —
// the data EvSel regresses to "determine functional dependencies
// between the input parameters and each measured indicator".
type Sweep struct {
	// ParamName labels the varied parameter (e.g. "threads").
	ParamName string
	Points    []SweepPoint

	// Correlate refits every regression for every event, so its result
	// is memoised: Render, Degraded and HardDegraded all consume it and
	// would otherwise triple the fitting work on large sweeps.
	corrMu  sync.Mutex
	corr    []Correlation
	corrFor int // len(Points) the memo was computed from
}

// NewSweep runs a sweep campaign, one point per parameter value, and
// assembles the sweep EvSel correlates. It is the one place the
// three-value rule lives: two points fit any line with R = ±1, so a
// shorter sweep is refused before a single run is spent on it.
func NewSweep(r *campaign.Runner) (*Sweep, *campaign.Report, error) {
	if len(r.Spec.Points) < 3 {
		return nil, nil, errors.New("evsel: a sweep needs at least 3 parameter values")
	}
	rep, err := run(r)
	if err != nil {
		return nil, nil, err
	}
	s := &Sweep{ParamName: rep.ParamName}
	for _, p := range rep.Points {
		s.Points = append(s.Points, SweepPoint{Param: p.Param, M: p.M})
	}
	return s, rep, nil
}

// run executes a campaign, naming the parameter value of the cell that
// aborted it.
func run(r *campaign.Runner) (*campaign.Report, error) {
	rep, err := r.Run()
	var ce *campaign.CampaignError
	if errors.As(err, &ce) {
		return nil, fmt.Errorf("evsel: measuring %s=%g: %w", r.Spec.ParamName, ce.Cell.Param, err)
	}
	return rep, err
}

// Correlation relates one event to the swept parameter.
type Correlation struct {
	Event counters.EventID
	Name  string
	// Best is the highest-R² regression among the fitted forms.
	Best stats.Regression
	// All contains every applicable fitted form.
	All []stats.Regression
	// R is the signed correlation-style coefficient of the best fit.
	R float64
	// Coverage is the fraction of requested samples (points ×
	// repetitions) that back the fit, 1 for complete sweeps. Campaigns
	// with gaps regress what they have and say so here.
	Coverage float64
	// Diags collects the degradations observed while fitting this
	// event: a constant series (Degenerate, advisory — the paper calls
	// such counters candidates for removal), non-finite samples dropped
	// before fitting, or a series left unusable altogether.
	Diags stats.Diagnostics
}

// Degraded reports whether the correlation carries any diagnostic.
func (c Correlation) Degraded() bool { return len(c.Diags) > 0 }

// Correlate fits linear, quadratic and exponential (and power)
// regressions of every measured event against the parameter, using all
// samples of all points, and returns the per-event results sorted by
// |R| descending. Events whose series cannot support a fit — constant,
// non-finite or otherwise degenerate — are not skipped silently: they
// appear with a zero R, no fitted form, and a diagnostic saying why.
func (s *Sweep) Correlate() []Correlation {
	s.corrMu.Lock()
	defer s.corrMu.Unlock()
	if s.corr == nil || s.corrFor != len(s.Points) {
		s.corr = s.correlate()
		s.corrFor = len(s.Points)
	}
	// Hand out a copy of the slice so callers cannot disturb the memo.
	out := make([]Correlation, len(s.corr))
	copy(out, s.corr)
	return out
}

func (s *Sweep) correlate() []Correlation {
	if len(s.Points) == 0 {
		return nil
	}
	var out []Correlation
	for _, id := range s.Points[0].M.Events() {
		var xs, ys []float64
		expected := 0
		for _, pt := range s.Points {
			for _, v := range pt.M.Samples[id] {
				xs = append(xs, pt.Param)
				ys = append(ys, v)
			}
			if pt.M.Reps > 0 {
				expected += pt.M.Reps
			} else {
				expected += len(pt.M.Samples[id])
			}
		}
		cov := 1.0
		if expected > 0 {
			cov = float64(len(ys)) / float64(expected)
			if cov > 1 {
				cov = 1
			}
		}
		c := Correlation{Event: id, Name: counters.Def(id).Name, Coverage: cov}
		cys, dropped := stats.SanitizeSamples(ys)
		nonFin := stats.Diagnostic{Kind: stats.NonFinite,
			Detail: "non-finite samples removed", Dropped: dropped}
		// Constant indicators carry no information about the parameter;
		// the paper suggests considering them for removal.
		if stats.Variance(cys) == 0 {
			if dropped > 0 {
				c.Diags = append(c.Diags, nonFin)
			}
			c.Diags = append(c.Diags, stats.Diagnostic{Kind: stats.Degenerate,
				Detail: "constant series"})
			out = append(out, c)
			continue
		}
		best, err := stats.BestFit(xs, ys)
		if err != nil {
			if dropped > 0 {
				c.Diags = append(c.Diags, nonFin)
			}
			c.Diags = append(c.Diags, stats.Diagnostic{Kind: stats.InsufficientData,
				Detail: "no regression family applicable"})
			out = append(out, c)
			continue
		}
		c.Best = best
		c.All = stats.FitAll(xs, ys)
		c.R = best.R()
		// The winning fit's own diagnostics already record any sanitation
		// it performed (non-finite or out-of-domain points dropped).
		c.Diags = append(c.Diags, best.Diags...)
		out = append(out, c)
	}
	sort.SliceStable(out, func(i, j int) bool {
		return math.Abs(out[i].R) > math.Abs(out[j].R)
	})
	return out
}

// Degraded reports whether any event's correlation carries a
// diagnostic of any kind (including advisory ones).
func (s *Sweep) Degraded() bool {
	for _, c := range s.Correlate() {
		if c.Degraded() {
			return true
		}
	}
	return false
}

// HardDegraded reports whether any event's correlation carries a hard
// diagnostic — the predicate -strict turns into a nonzero exit.
// Constant series alone do not count: they are routine on healthy
// platforms with many never-firing counters.
func (s *Sweep) HardDegraded() bool {
	for _, c := range s.Correlate() {
		if c.Diags.HasHard() {
			return true
		}
	}
	return false
}

// CorrelationFor returns the correlation of one event.
func (s *Sweep) CorrelationFor(id counters.EventID) (Correlation, bool) {
	for _, c := range s.Correlate() {
		if c.Event == id {
			return c, true
		}
	}
	return Correlation{}, false
}

// TopCorrelations keeps correlations with |R| ≥ minAbsR.
func (s *Sweep) TopCorrelations(minAbsR float64) []Correlation {
	var out []Correlation
	for _, c := range s.Correlate() {
		if math.Abs(c.R) >= minAbsR {
			out = append(out, c)
		}
	}
	return out
}

// Render prints the correlation table in the style of the paper's
// Fig. 9: event, regression type, fitted function, R². Sweeps over
// partial data grow a COVER column stating what fraction of requested
// samples backs each fit; degraded fits grow a DIAG column of
// diagnostic codes, and degraded events below the |R| cutoff are
// counted in a footer instead of vanishing. Healthy complete sweeps
// render exactly as before.
func (s *Sweep) Render(minAbsR float64) string {
	all := s.Correlate()
	var top []Correlation
	excluded := 0
	for _, c := range all {
		if math.Abs(c.R) >= minAbsR && len(c.Best.Coeffs) > 0 {
			top = append(top, c)
		} else if c.Degraded() {
			excluded++
		}
	}
	partial, degraded := false, false
	for _, c := range top {
		if c.Coverage < 1 {
			partial = true
		}
		if c.Degraded() {
			degraded = true
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "correlations against %s (|R| ≥ %.2f)\n", s.ParamName, minAbsR)
	cover := ""
	if partial {
		cover = fmt.Sprintf(" %6s", "COVER")
	}
	diag := ""
	if degraded {
		diag = fmt.Sprintf(" %12s", "DIAG")
	}
	fmt.Fprintf(&sb, "%-45s %-11s %-34s %8s %8s%s%s\n", "EVENT", "TYPE", "FUNCTION", "R²", "R", cover, diag)
	for _, c := range top {
		if partial {
			cover = fmt.Sprintf(" %5.0f%%", 100*c.Coverage)
		}
		if degraded {
			diag = fmt.Sprintf(" %12s", c.Diags.Codes())
		}
		fmt.Fprintf(&sb, "%-45s %-11s %-34s %8.4f %+8.4f%s%s\n",
			c.Name, c.Best.Kind.String(), c.Best.Equation(), c.Best.R2, c.R, cover, diag)
	}
	if partial {
		sb.WriteString("partial data: COVER lists the fraction of requested samples backing each fit\n")
	}
	if degraded {
		sb.WriteString("degraded data: DIAG marks fits computed after dropping unusable samples\n")
	}
	if excluded > 0 {
		fmt.Fprintf(&sb, "%d event(s) below the cutoff carry diagnostics (constant, non-finite or unusable series)\n",
			excluded)
	}
	return sb.String()
}

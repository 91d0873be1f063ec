package stats

import (
	"errors"
	"fmt"
	"math"

	"numaperf/internal/linalg"
)

// ErrNonFiniteFit is returned when a regression's coefficients or
// quality measures come out NaN/Inf even after input sanitation — for
// instance when the back-transformed exponential overflows. A
// Regression returned without error never carries non-finite values.
var ErrNonFiniteFit = errors.New("stats: non-finite fit")

// RegressionKind identifies the functional form of a fitted model.
// EvSel creates linear, quadratic and exponential regressions to find
// interdependencies between input parameters and event counters; the
// power form is added because counter-vs-size relations of O(n log n)
// algorithms are captured far better by y = a·x^b.
type RegressionKind int

const (
	LinearRegression RegressionKind = iota
	QuadraticRegression
	ExponentialRegression
	PowerRegression
	LogarithmicRegression
)

// String returns the human-readable name of the regression kind.
func (k RegressionKind) String() string {
	switch k {
	case LinearRegression:
		return "linear"
	case QuadraticRegression:
		return "quadratic"
	case ExponentialRegression:
		return "exponential"
	case PowerRegression:
		return "power"
	case LogarithmicRegression:
		return "logarithmic"
	default:
		return fmt.Sprintf("RegressionKind(%d)", int(k))
	}
}

// Regression is a fitted model y ≈ f(x) together with its quality
// measures. N counts the points actually fitted; Dropped counts the
// points discarded beforehand (non-finite values, or outside the
// domain of a log-transformed family), each drop recorded in Diags.
type Regression struct {
	Kind    RegressionKind
	Coeffs  []float64 // interpretation depends on Kind; see Predict
	R2      float64   // coefficient of determination
	RMSE    float64   // root mean squared residual
	N       int
	Dropped int
	Diags   Diagnostics
	// XMin and XMax bound the x values the fit used; R reads the
	// direction of the fitted curve across them.
	XMin, XMax float64
}

// Predict evaluates the fitted model at x.
func (r Regression) Predict(x float64) float64 {
	c := r.Coeffs
	switch r.Kind {
	case LinearRegression: // y = c0·x + c1
		return c[0]*x + c[1]
	case QuadraticRegression: // y = c0·x² + c1·x + c2
		return c[0]*x*x + c[1]*x + c[2]
	case ExponentialRegression: // y = c0·e^(c1·x)
		return c[0] * math.Exp(c[1]*x)
	case PowerRegression: // y = c0·x^c1
		return c[0] * math.Pow(x, c[1])
	case LogarithmicRegression: // y = c0·ln(x) + c1
		return c[0]*math.Log(x) + c[1]
	default:
		return math.NaN()
	}
}

// R returns the correlation-style coefficient √R², negative when the
// fitted curve falls across the sampled x range (ŷ(XMax) < ŷ(XMin)).
// EvSel's UI reports R values such as "R > 0.95" or negative
// correlations. The direction is read from the curve, not from a
// coefficient: a quadratic's leading term is its curvature, and a
// convex curve can fall over the whole range.
func (r Regression) R() float64 {
	root := math.Sqrt(math.Max(r.R2, 0))
	if len(r.Coeffs) > 0 && r.Predict(r.XMax) < r.Predict(r.XMin) {
		return -root
	}
	return root
}

// Equation renders the model as a printable formula, matching the
// EvSel screenshot where "the regression functions themselves are
// shown along with their coefficients of determination".
func (r Regression) Equation() string {
	c := r.Coeffs
	switch r.Kind {
	case LinearRegression:
		return fmt.Sprintf("y = %.4g·x %+.4g", c[0], c[1])
	case QuadraticRegression:
		return fmt.Sprintf("y = %.4g·x² %+.4g·x %+.4g", c[0], c[1], c[2])
	case ExponentialRegression:
		return fmt.Sprintf("y = %.4g·e^(%.4g·x)", c[0], c[1])
	case PowerRegression:
		return fmt.Sprintf("y = %.4g·x^%.4g", c[0], c[1])
	case LogarithmicRegression:
		return fmt.Sprintf("y = %.4g·ln(x) %+.4g", c[0], c[1])
	default:
		return "y = ?"
	}
}

// String summarises the fit.
func (r Regression) String() string {
	return fmt.Sprintf("%s: %s (R²=%.4f, n=%d)", r.Kind, r.Equation(), r.R2, r.N)
}

func checkXY(xs, ys []float64, minN int) error {
	if len(xs) != len(ys) {
		return fmt.Errorf("stats: x/y length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) < minN {
		return fmt.Errorf("%w: need ≥%d points, got %d", ErrInsufficientData, minN, len(xs))
	}
	return nil
}

// cleanXY drops point pairs that are non-finite or — when posX/posY is
// set — outside the domain of a log-transformed family, recording one
// diagnostic per cause. Already-clean inputs are returned as-is.
func cleanXY(xs, ys []float64, posX, posY bool) (cx, cy []float64, diags Diagnostics) {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	nonfin, domain := 0, 0
	for i := range xs {
		switch {
		case !finite(xs[i]) || !finite(ys[i]):
			nonfin++
		case (posX && xs[i] <= 0) || (posY && ys[i] <= 0):
			domain++
		}
	}
	if nonfin == 0 && domain == 0 {
		return xs, ys, nil
	}
	cx = make([]float64, 0, len(xs)-nonfin-domain)
	cy = make([]float64, 0, cap(cx))
	for i := range xs {
		if !finite(xs[i]) || !finite(ys[i]) {
			continue
		}
		if (posX && xs[i] <= 0) || (posY && ys[i] <= 0) {
			continue
		}
		cx = append(cx, xs[i])
		cy = append(cy, ys[i])
	}
	if nonfin > 0 {
		diags = append(diags, nonFiniteDiag(nonfin))
	}
	if domain > 0 {
		diags = append(diags, Diagnostic{Kind: DomainViolation,
			Detail: "points outside the log-transform domain removed", Dropped: domain})
	}
	return cx, cy, diags
}

// tooFew builds the uniform error and diagnostic for a fit left with
// fewer usable points than the family needs.
func tooFew(kind RegressionKind, usable, total, minN int, diags Diagnostics) (Regression, error) {
	diags = append(diags, Diagnostic{Kind: InsufficientData,
		Detail: fmt.Sprintf("%d usable of %d points", usable, total)})
	return Regression{Kind: kind, Diags: diags, Dropped: total - usable},
		fmt.Errorf("%w: %s fit needs ≥%d points, only %d of %d usable",
			ErrInsufficientData, kind, minN, usable, total)
}

// finalize scores the fit on the cleaned points and rejects any fit
// whose coefficients or quality measures came out non-finite — the
// invariant FuzzRegression locks in: a returned Regression never
// carries NaN or ±Inf.
func finalize(r Regression, xs, ys []float64) (Regression, error) {
	r.R2, r.RMSE = rSquared(r, xs, ys)
	r.XMin, r.XMax = xs[0], xs[0]
	for _, x := range xs {
		r.XMin, r.XMax = math.Min(r.XMin, x), math.Max(r.XMax, x)
	}
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	for _, c := range r.Coeffs {
		if !finite(c) {
			r.Diags = append(r.Diags, Diagnostic{Kind: NonFinite, Detail: "fit diverged"})
			return r, fmt.Errorf("%w: %s fit produced non-finite coefficients", ErrNonFiniteFit, r.Kind)
		}
	}
	if !finite(r.R2) || !finite(r.RMSE) {
		r.Diags = append(r.Diags, Diagnostic{Kind: NonFinite, Detail: "fit diverged"})
		return r, fmt.Errorf("%w: %s fit produced non-finite R²", ErrNonFiniteFit, r.Kind)
	}
	if Variance(ys) == 0 {
		r.Diags = append(r.Diags, Diagnostic{Kind: Degenerate, Detail: "constant response"})
	}
	return r, nil
}

// rSquared computes 1 − SSres/SStot for predictions of the model.
func rSquared(r Regression, xs, ys []float64) (r2, rmse float64) {
	my := Mean(ys)
	ssRes, ssTot := 0.0, 0.0
	for i, x := range xs {
		d := ys[i] - r.Predict(x)
		ssRes += d * d
		t := ys[i] - my
		ssTot += t * t
	}
	rmse = math.Sqrt(ssRes / float64(len(xs)))
	if ssTot == 0 {
		if ssRes == 0 {
			return 1, rmse
		}
		return 0, rmse
	}
	return 1 - ssRes/ssTot, rmse
}

// FitLinear fits y = a·x + b via least squares (the linear least
// squares deduction spelled out in the paper). Non-finite point pairs
// are dropped with a NonFinite diagnostic before fitting.
func FitLinear(xs, ys []float64) (Regression, error) {
	if err := checkXY(xs, ys, 2); err != nil {
		return Regression{}, err
	}
	cx, cy, diags := cleanXY(xs, ys, false, false)
	if len(cx) < 2 {
		return tooFew(LinearRegression, len(cx), len(xs), 2, diags)
	}
	design := linalg.New(len(cx), 2)
	for i, x := range cx {
		design.Set(i, 0, x)
		design.Set(i, 1, 1)
	}
	beta, err := linalg.SolveLeastSquares(design, cy)
	if err != nil {
		return Regression{Kind: LinearRegression, Diags: diags}, err
	}
	r := Regression{Kind: LinearRegression, Coeffs: beta,
		N: len(cx), Dropped: len(xs) - len(cx), Diags: diags}
	return finalize(r, cx, cy)
}

// FitQuadratic fits y = a·x² + b·x + c, after the same non-finite
// filtering as FitLinear.
func FitQuadratic(xs, ys []float64) (Regression, error) {
	if err := checkXY(xs, ys, 3); err != nil {
		return Regression{}, err
	}
	cx, cy, diags := cleanXY(xs, ys, false, false)
	if len(cx) < 3 {
		return tooFew(QuadraticRegression, len(cx), len(xs), 3, diags)
	}
	design := linalg.New(len(cx), 3)
	for i, x := range cx {
		design.Set(i, 0, x*x)
		design.Set(i, 1, x)
		design.Set(i, 2, 1)
	}
	beta, err := linalg.SolveLeastSquares(design, cy)
	if err != nil {
		return Regression{Kind: QuadraticRegression, Diags: diags}, err
	}
	r := Regression{Kind: QuadraticRegression, Coeffs: beta,
		N: len(cx), Dropped: len(xs) - len(cx), Diags: diags}
	return finalize(r, cx, cy)
}

// FitExponential fits y = a·e^(b·x) by log-transforming y, the
// transformation trick the paper mentions ("more complex functions
// could be fitted by transforming the data, for instance by applying
// natural logarithms beforehand"). Points with y ≤ 0 lie outside the
// transform's domain and are dropped with a DomainViolation
// diagnostic; the fit proceeds on the rest.
func FitExponential(xs, ys []float64) (Regression, error) {
	if err := checkXY(xs, ys, 2); err != nil {
		return Regression{}, err
	}
	cx, cy, diags := cleanXY(xs, ys, false, true)
	if len(cx) < 2 {
		return tooFew(ExponentialRegression, len(cx), len(xs), 2, diags)
	}
	logy := make([]float64, len(cy))
	for i, y := range cy {
		logy[i] = math.Log(y)
	}
	lin, err := FitLinear(cx, logy)
	if err != nil {
		return Regression{Kind: ExponentialRegression, Diags: diags}, err
	}
	r := Regression{
		Kind:    ExponentialRegression,
		Coeffs:  []float64{math.Exp(lin.Coeffs[1]), lin.Coeffs[0]},
		N:       len(cx),
		Dropped: len(xs) - len(cx),
		Diags:   diags,
	}
	return finalize(r, cx, cy)
}

// FitPower fits y = a·x^b by log-log transformation. Points with
// x ≤ 0 or y ≤ 0 are dropped with a DomainViolation diagnostic.
func FitPower(xs, ys []float64) (Regression, error) {
	if err := checkXY(xs, ys, 2); err != nil {
		return Regression{}, err
	}
	cx, cy, diags := cleanXY(xs, ys, true, true)
	if len(cx) < 2 {
		return tooFew(PowerRegression, len(cx), len(xs), 2, diags)
	}
	logx := make([]float64, len(cx))
	logy := make([]float64, len(cy))
	for i := range cx {
		logx[i] = math.Log(cx[i])
		logy[i] = math.Log(cy[i])
	}
	lin, err := FitLinear(logx, logy)
	if err != nil {
		return Regression{Kind: PowerRegression, Diags: diags}, err
	}
	r := Regression{
		Kind:    PowerRegression,
		Coeffs:  []float64{math.Exp(lin.Coeffs[1]), lin.Coeffs[0]},
		N:       len(cx),
		Dropped: len(xs) - len(cx),
		Diags:   diags,
	}
	return finalize(r, cx, cy)
}

// FitLogarithmic fits y = a·ln(x) + b, the transformed-data form the
// paper suggests for relations that flatten with the parameter. Points
// with x ≤ 0 are dropped with a DomainViolation diagnostic.
func FitLogarithmic(xs, ys []float64) (Regression, error) {
	if err := checkXY(xs, ys, 2); err != nil {
		return Regression{}, err
	}
	cx, cy, diags := cleanXY(xs, ys, true, false)
	if len(cx) < 2 {
		return tooFew(LogarithmicRegression, len(cx), len(xs), 2, diags)
	}
	logx := make([]float64, len(cx))
	for i, x := range cx {
		logx[i] = math.Log(x)
	}
	lin, err := FitLinear(logx, cy)
	if err != nil {
		return Regression{Kind: LogarithmicRegression, Diags: diags}, err
	}
	r := Regression{Kind: LogarithmicRegression, Coeffs: lin.Coeffs,
		N: len(cx), Dropped: len(xs) - len(cx), Diags: diags}
	return finalize(r, cx, cy)
}

// FitAll fits every applicable regression kind and returns the fits
// ordered as [linear, quadratic, exponential, power, logarithmic].
// Families that had to drop out-of-domain or non-finite points still
// appear, with the drops recorded in Dropped/Diags; only families left
// with too few usable points (or whose fit diverged) are omitted.
func FitAll(xs, ys []float64) []Regression {
	var out []Regression
	if r, err := FitLinear(xs, ys); err == nil {
		out = append(out, r)
	}
	if r, err := FitQuadratic(xs, ys); err == nil {
		out = append(out, r)
	}
	if r, err := FitExponential(xs, ys); err == nil {
		out = append(out, r)
	}
	if r, err := FitPower(xs, ys); err == nil {
		out = append(out, r)
	}
	if r, err := FitLogarithmic(xs, ys); err == nil {
		out = append(out, r)
	}
	return out
}

// BestFit returns the regression with the highest R² among FitAll's
// results, preferring simpler forms on near ties (within tieBreak) so
// that a quadratic never displaces an equally good line. Fits that
// kept every point always outrank fits that had to drop some: a family
// that discarded data only wins when no family could use all of it, so
// on healthy data the selection is exactly the classic one.
func BestFit(xs, ys []float64) (Regression, error) {
	fits := FitAll(xs, ys)
	if len(fits) == 0 {
		return Regression{}, fmt.Errorf("%w: no regression applicable", ErrInsufficientData)
	}
	const tieBreak = 1e-4
	pick := func(fs []Regression) Regression {
		best := fs[0]
		for _, f := range fs[1:] {
			if f.R2 > best.R2+tieBreak {
				best = f
			}
		}
		return best
	}
	var complete []Regression
	for _, f := range fits {
		if f.Dropped == 0 {
			complete = append(complete, f)
		}
	}
	if len(complete) > 0 {
		return pick(complete), nil
	}
	return pick(fits), nil
}

// PearsonR returns the Pearson correlation coefficient of two samples.
func PearsonR(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

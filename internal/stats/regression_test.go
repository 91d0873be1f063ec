package stats

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestFitLinearExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{3, 5, 7, 9, 11} // y = 2x + 1
	r, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Coeffs[0]-2) > 1e-10 || math.Abs(r.Coeffs[1]-1) > 1e-10 {
		t.Errorf("coeffs = %v, want [2 1]", r.Coeffs)
	}
	if r.R2 < 1-1e-12 {
		t.Errorf("R² = %g, want 1", r.R2)
	}
	if r.R() < 1-1e-6 {
		t.Errorf("R = %g, want 1", r.R())
	}
	if got := r.Predict(10); math.Abs(got-21) > 1e-10 {
		t.Errorf("Predict(10) = %g, want 21", got)
	}
}

func TestFitLinearNegativeSlopeR(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{8, 6, 4, 2}
	r, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if r.R() > -0.999 {
		t.Errorf("R = %g, want ≈ −1 (paper's negative correlation display)", r.R())
	}
}

func TestFitQuadraticExact(t *testing.T) {
	xs := []float64{-2, -1, 0, 1, 2, 3}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x*x - 2*x + 7
	}
	r, err := FitQuadratic(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, -2, 7}
	for i, w := range want {
		if math.Abs(r.Coeffs[i]-w) > 1e-8 {
			t.Errorf("coeff[%d] = %g, want %g", i, r.Coeffs[i], w)
		}
	}
	if r.R2 < 1-1e-10 {
		t.Errorf("R² = %g", r.R2)
	}
}

// TestQuadraticRSignFollowsCurve pins the sign of R to the direction
// of the fitted curve over the sampled range, not to the sign of the
// x² (curvature) coefficient.
func TestQuadraticRSignFollowsCurve(t *testing.T) {
	cases := []struct {
		name  string
		f     func(x float64) float64
		wantR float64
	}{
		{"convex falling", func(x float64) float64 { return 200*x*x - 4400*x + 160000 }, -1},
		{"concave rising", func(x float64) float64 { return -0.3*x*x + 6.6*x - 5 }, +1},
		{"convex rising", func(x float64) float64 { return x*x + x }, +1},
		{"concave falling", func(x float64) float64 { return -x*x - x }, -1},
	}
	xs := []float64{1, 2, 4, 6, 8}
	for _, tc := range cases {
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = tc.f(x)
		}
		r, err := FitQuadratic(xs, ys)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := r.R(); math.Abs(got-tc.wantR) > 1e-9 {
			t.Errorf("%s: R = %+g, want %+g (fit %s)", tc.name, got, tc.wantR, r.Equation())
		}
	}
}

func TestFitExponentialExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2.5 * math.Exp(0.7*x)
	}
	r, err := FitExponential(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Coeffs[0]-2.5) > 1e-8 || math.Abs(r.Coeffs[1]-0.7) > 1e-8 {
		t.Errorf("coeffs = %v, want [2.5 0.7]", r.Coeffs)
	}
	// A negative y is outside the log transform's domain: the point is
	// dropped with a DomainViolation diagnostic and the fit proceeds on
	// the rest.
	part, err := FitExponential(xs, []float64{1, -1, 1, 1, 1})
	if err != nil {
		t.Fatalf("partial exponential fit: %v", err)
	}
	if part.Dropped != 1 || !part.Diags.Has(DomainViolation) {
		t.Errorf("dropped=%d diags=%v, want 1 dropped with DomainViolation", part.Dropped, part.Diags)
	}
	if part.N != 4 {
		t.Errorf("N = %d, want 4", part.N)
	}
	// With fewer than two usable points the fit still fails.
	if _, err := FitExponential([]float64{1, 2}, []float64{-1, -2}); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("all-negative y: %v", err)
	}
}

func TestFitPowerExact(t *testing.T) {
	xs := []float64{1, 2, 4, 8, 16}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * math.Pow(x, 1.5)
	}
	r, err := FitPower(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Coeffs[0]-3) > 1e-8 || math.Abs(r.Coeffs[1]-1.5) > 1e-8 {
		t.Errorf("coeffs = %v, want [3 1.5]", r.Coeffs)
	}
	// Dropping the out-of-domain point leaves a single pair — not
	// enough to fit.
	if _, err := FitPower([]float64{-1, 2}, []float64{1, 2}); !errors.Is(err, ErrInsufficientData) {
		t.Error("one usable point must fail the power fit")
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := FitLinear([]float64{1}, []float64{1}); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("short linear: %v", err)
	}
	if _, err := FitLinear([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch must fail")
	}
	if _, err := FitQuadratic([]float64{1, 2}, []float64{1, 2}); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("short quadratic: %v", err)
	}
}

func TestBestFitPrefersCorrectForm(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	quad := make([]float64, len(xs))
	expo := make([]float64, len(xs))
	for i, x := range xs {
		quad[i] = 2*x*x + x + 3
		expo[i] = 1.5 * math.Exp(0.9*x)
	}
	q, err := BestFit(xs, quad)
	if err != nil {
		t.Fatal(err)
	}
	if q.Kind != QuadraticRegression {
		t.Errorf("quadratic data fitted as %v", q.Kind)
	}
	e, err := BestFit(xs, expo)
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind != ExponentialRegression {
		t.Errorf("exponential data fitted as %v", e.Kind)
	}
	// Linear data must stay linear even though the quadratic nests it.
	lin := []float64{2, 4, 6, 8, 10, 12, 14, 16}
	l, err := BestFit(xs, lin)
	if err != nil {
		t.Fatal(err)
	}
	if l.Kind != LinearRegression {
		t.Errorf("linear data fitted as %v (tie-break failed)", l.Kind)
	}
}

func TestFitAllMarksPartialFits(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{-1, 2, -3, 4} // negatives: exponential and power must filter
	fits := FitAll(xs, ys)
	if len(fits) != 5 {
		t.Fatalf("got %d fits, want all 5 families", len(fits))
	}
	for _, f := range fits {
		switch f.Kind {
		case ExponentialRegression, PowerRegression:
			if f.Dropped != 2 || !f.Diags.Has(DomainViolation) {
				t.Errorf("%v: dropped=%d diags=%v, want 2 dropped with DomainViolation",
					f.Kind, f.Dropped, f.Diags)
			}
		default:
			if f.Dropped != 0 || len(f.Diags) != 0 {
				t.Errorf("%v: unexpected drops on in-domain data: %d %v", f.Kind, f.Dropped, f.Diags)
			}
		}
	}
	// BestFit never lets a partial fit displace a complete one.
	best, err := BestFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if best.Dropped != 0 {
		t.Errorf("best fit %v dropped %d points despite complete alternatives", best.Kind, best.Dropped)
	}
	// Negative x additionally cuts into the logarithmic form's domain.
	for _, f := range FitAll([]float64{-1, 2, 3, 4}, ys) {
		if f.Kind == LogarithmicRegression && f.Dropped == 0 {
			t.Error("logarithmic fit with non-positive x must drop the point")
		}
	}
}

func TestFitLogarithmicExact(t *testing.T) {
	xs := []float64{1, 2, 4, 8, 16, 32}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 100 - 7*math.Log(x)
	}
	r, err := FitLogarithmic(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Coeffs[0]+7) > 1e-8 || math.Abs(r.Coeffs[1]-100) > 1e-8 {
		t.Errorf("coeffs = %v, want [-7 100]", r.Coeffs)
	}
	if r.R() > -0.999 {
		t.Errorf("R = %g, want ≈ −1", r.R())
	}
	if !strings.Contains(r.Equation(), "ln(x)") {
		t.Errorf("Equation = %q", r.Equation())
	}
	if _, err := FitLogarithmic([]float64{0, 1}, []float64{1, 2}); err == nil {
		t.Error("x=0 must fail")
	}
	// BestFit prefers the log form for log data over linear/quadratic.
	best, err := BestFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if best.Kind != LogarithmicRegression {
		t.Errorf("best fit = %v, want logarithmic", best.Kind)
	}
}

func TestRegressionStrings(t *testing.T) {
	r, _ := FitLinear([]float64{1, 2, 3}, []float64{2, 4, 6})
	if !strings.Contains(r.Equation(), "x") || !strings.Contains(r.String(), "linear") {
		t.Errorf("Equation=%q String=%q", r.Equation(), r.String())
	}
	for _, k := range []RegressionKind{LinearRegression, QuadraticRegression, ExponentialRegression, PowerRegression} {
		if k.String() == "" || strings.HasPrefix(k.String(), "RegressionKind") {
			t.Errorf("missing name for kind %d", int(k))
		}
	}
	if RegressionKind(99).String() != "RegressionKind(99)" {
		t.Error("unknown kind string")
	}
	if !math.IsNaN((Regression{Kind: RegressionKind(99), Coeffs: []float64{1}}).Predict(1)) {
		t.Error("unknown kind Predict must be NaN")
	}
}

func TestPearsonR(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if r := PearsonR(xs, ys); math.Abs(r-1) > 1e-12 {
		t.Errorf("perfect positive: R = %g", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if r := PearsonR(xs, neg); math.Abs(r+1) > 1e-12 {
		t.Errorf("perfect negative: R = %g", r)
	}
	if !math.IsNaN(PearsonR(xs, []float64{1, 1, 1, 1, 1})) {
		t.Error("constant y must be NaN")
	}
	if !math.IsNaN(PearsonR([]float64{1}, []float64{1})) {
		t.Error("single point must be NaN")
	}
}

// Property: R² is invariant under affine transformation of x for the
// linear fit.
func TestLinearR2AffineInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(20)
		xs := make([]float64, n)
		xs2 := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
			xs2[i] = 3*xs[i] + 17
			ys[i] = 2*xs[i] + rng.NormFloat64()
		}
		a, err1 := FitLinear(xs, ys)
		b, err2 := FitLinear(xs2, ys)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(a.R2-b.R2) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: adding noise can only decrease (never increase) R² in
// expectation; check the weaker bound R²(noisy) ≤ 1.
func TestR2Bounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(20)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
			ys[i] = 5*xs[i] + 10*rng.NormFloat64()
		}
		r, err := FitLinear(xs, ys)
		if err != nil {
			return false
		}
		return r.R2 <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

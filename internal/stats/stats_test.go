package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"github.com/repro/cobra/internal/xrand"
)

func close(t *testing.T, what string, got, want, eps float64) {
	t.Helper()
	if math.Abs(got-want) > eps {
		t.Fatalf("%s: got %v want %v", what, got, want)
	}
}

func TestSummarizeKnownSample(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	close(t, "mean", s.Mean, 3, 1e-12)
	close(t, "min", s.Min, 1, 0)
	close(t, "max", s.Max, 5, 0)
	close(t, "median", s.Median, 3, 1e-12)
	close(t, "std", s.Std, math.Sqrt(2.5), 1e-12)
	close(t, "q25", s.Q25, 2, 1e-12)
	close(t, "q75", s.Q75, 4, 1e-12)
	if s.CI95Lo >= s.Mean || s.CI95Hi <= s.Mean {
		t.Fatal("CI does not bracket mean")
	}
}

func TestSummarizeSingleton(t *testing.T) {
	s, err := Summarize([]float64{7})
	if err != nil {
		t.Fatal(err)
	}
	if s.Std != 0 || s.Mean != 7 || s.Median != 7 {
		t.Fatalf("singleton summary %+v", s)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); !errors.Is(err, ErrInput) {
		t.Fatal("empty accepted")
	}
}

func TestQuantileEdges(t *testing.T) {
	sorted := []float64{1, 2, 3, 4}
	close(t, "q0", Quantile(sorted, 0), 1, 0)
	close(t, "q1", Quantile(sorted, 1), 4, 0)
	close(t, "q.5", Quantile(sorted, 0.5), 2.5, 1e-12)
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile not NaN")
	}
	close(t, "single", Quantile([]float64{9}, 0.3), 9, 0)
}

func TestMean(t *testing.T) {
	close(t, "mean", Mean([]float64{2, 4}), 3, 1e-12)
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("empty mean not NaN")
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 2x + 1
	f, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	close(t, "slope", f.Slope, 2, 1e-12)
	close(t, "intercept", f.Intercept, 1, 1e-12)
	close(t, "r2", f.R2, 1, 1e-12)
}

func TestLinearFitErrors(t *testing.T) {
	if _, err := LinearFit([]float64{1}, []float64{1, 2}); !errors.Is(err, ErrInput) {
		t.Fatal("length mismatch accepted")
	}
	if _, err := LinearFit([]float64{1}, []float64{1}); !errors.Is(err, ErrInput) {
		t.Fatal("single point accepted")
	}
	if _, err := LinearFit([]float64{2, 2, 2}, []float64{1, 2, 3}); !errors.Is(err, ErrInput) {
		t.Fatal("degenerate x accepted")
	}
}

func TestLogLogFitRecoversExponent(t *testing.T) {
	// y = 5 x^1.5
	var xs, ys []float64
	for _, x := range []float64{2, 4, 8, 16, 32} {
		xs = append(xs, x)
		ys = append(ys, 5*math.Pow(x, 1.5))
	}
	f, err := LogLogFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	close(t, "exponent", f.Slope, 1.5, 1e-9)
	close(t, "logC", f.Intercept, math.Log(5), 1e-9)
}

func TestLogLogFitRejectsNonPositive(t *testing.T) {
	if _, err := LogLogFit([]float64{1, -1}, []float64{1, 1}); !errors.Is(err, ErrInput) {
		t.Fatal("negative x accepted")
	}
	if _, err := LogLogFit([]float64{1, 2}, []float64{0, 1}); !errors.Is(err, ErrInput) {
		t.Fatal("zero y accepted")
	}
}

func TestSemiLogFit(t *testing.T) {
	// y = 3 ln x + 2
	var xs, ys []float64
	for _, x := range []float64{2, 4, 8, 16} {
		xs = append(xs, x)
		ys = append(ys, 3*math.Log(x)+2)
	}
	f, err := SemiLogFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	close(t, "slope", f.Slope, 3, 1e-9)
	close(t, "intercept", f.Intercept, 2, 1e-9)
	if _, err := SemiLogFit([]float64{0, 1}, []float64{1, 2}); !errors.Is(err, ErrInput) {
		t.Fatal("x=0 accepted")
	}
}

// Property: summary invariants Min <= Q25 <= Median <= Q75 <= Max and
// Min <= Mean <= Max.
func TestSummaryOrderProperty(t *testing.T) {
	rng := xrand.New(1)
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 1 + r.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 10
		}
		s, err := Summarize(xs)
		if err != nil {
			return false
		}
		return s.Min <= s.Q25+1e-12 && s.Q25 <= s.Median+1e-12 &&
			s.Median <= s.Q75+1e-12 && s.Q75 <= s.Max+1e-12 &&
			s.Min <= s.Mean+1e-12 && s.Mean <= s.Max+1e-12
	}
	_ = rng
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: LinearFit residual orthogonality — slope of residuals vs x
// is ~0.
func TestFitResidualProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 10 + r.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i) + r.Float64()
			ys[i] = 2*xs[i] + 1 + r.NormFloat64()
		}
		fit, err := LinearFit(xs, ys)
		if err != nil {
			return false
		}
		res := make([]float64, n)
		for i := range xs {
			res[i] = ys[i] - fit.Slope*xs[i] - fit.Intercept
		}
		rf, err := LinearFit(xs, res)
		if err != nil {
			return false
		}
		return math.Abs(rf.Slope) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

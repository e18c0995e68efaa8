package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"math/rand/v2"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 {
		t.Fatalf("N=%d Mean=%v", s.N, s.Mean)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("Min=%v Max=%v", s.Min, s.Max)
	}
	// Sample variance with n-1 = 32/7.
	if math.Abs(s.Variance-32.0/7.0) > 1e-12 {
		t.Fatalf("Variance = %v", s.Variance)
	}
}

func TestSummarizeEdges(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatal("empty summary not zero")
	}
	s := Summarize([]float64{3})
	if s.N != 1 || s.Mean != 3 || s.Variance != 0 || s.Min != 3 || s.Max != 3 {
		t.Fatalf("singleton summary: %+v", s)
	}
}

func TestCDFFractionAtMost(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	cases := []struct {
		x    float64
		want float64
	}{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, tc := range cases {
		if got := c.FractionAtMost(tc.x); got != tc.want {
			t.Errorf("FractionAtMost(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestCDFQuantile(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40})
	if q := c.Quantile(0.5); q != 20 {
		t.Errorf("median = %v, want 20", q)
	}
	if q := c.Quantile(0); q != 10 {
		t.Errorf("Quantile(0) = %v", q)
	}
	if q := c.Quantile(1); q != 40 {
		t.Errorf("Quantile(1) = %v", q)
	}
	if !math.IsNaN(NewCDF(nil).Quantile(0.5)) {
		t.Error("empty CDF quantile should be NaN")
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{1, 1, 2})
	pts := c.Points()
	if len(pts) != 2 {
		t.Fatalf("points = %v", pts)
	}
	if pts[0] != (Point{1, 2.0 / 3}) || pts[1] != (Point{2, 1}) {
		t.Fatalf("points = %v", pts)
	}
}

// Property: CDF is monotone nondecreasing and ends at 1.
func TestQuickCDFMonotone(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		c := NewCDF(clean)
		pts := c.Points()
		prev := 0.0
		for _, p := range pts {
			if p.Y < prev {
				return false
			}
			prev = p.Y
		}
		return math.Abs(pts[len(pts)-1].Y-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Quantile and FractionAtMost are approximate inverses.
func TestQuickQuantileConsistency(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = rng.Float64() * 100
	}
	c := NewCDF(xs)
	sort.Float64s(xs)
	for _, p := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		q := c.Quantile(p)
		if frac := c.FractionAtMost(q); frac < p-1e-9 {
			t.Errorf("FractionAtMost(Quantile(%v)) = %v < %v", p, frac, p)
		}
	}
}

func TestBinomialCI(t *testing.T) {
	lo, hi := BinomialCI(50, 100, 1.96)
	if lo >= 0.5 || hi <= 0.5 {
		t.Fatalf("CI [%v,%v] should straddle 0.5", lo, hi)
	}
	if hi-lo > 0.25 {
		t.Fatalf("CI [%v,%v] too wide for n=100", lo, hi)
	}
	lo, hi = BinomialCI(0, 100, 1.96)
	if lo != 0 || hi < 0.01 || hi > 0.1 {
		t.Fatalf("zero-successes CI [%v,%v]", lo, hi)
	}
	lo, hi = BinomialCI(0, 0, 1.96)
	if lo != 0 || hi != 1 {
		t.Fatalf("no-trials CI [%v,%v], want [0,1]", lo, hi)
	}
	// Wilson score intervals at 95%, to four places: the four worked
	// examples of Newcombe (Statistics in Medicine 17, 1998), and 0/10.
	for _, c := range []struct {
		x, n   int
		lo, hi float64
	}{
		{81, 263, 0.2553, 0.3662},
		{15, 148, 0.0624, 0.1605},
		{0, 20, 0, 0.1611},
		{1, 29, 0.0061, 0.1718},
		{0, 10, 0, 0.2775},
	} {
		lo, hi := BinomialCI(c.x, c.n, 1.96)
		if math.Abs(lo-c.lo) > 5e-5 || math.Abs(hi-c.hi) > 5e-5 {
			t.Errorf("BinomialCI(%d, %d) = [%.5f, %.5f], want [%.4f, %.4f]", c.x, c.n, lo, hi, c.lo, c.hi)
		}
	}
}

func TestTCriticalKnownValues(t *testing.T) {
	cases := []struct {
		df   int
		conf float64
		want float64
	}{
		{1, 0.95, 12.706},
		{10, 0.95, 2.228},
		{30, 0.95, 2.042},
		{5, 0.999, 6.869},
		{30, 0.999, 3.646},
		{14, 0.99, 2.977},
	}
	for _, c := range cases {
		if got := TCritical(c.df, c.conf); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("TCritical(%d, %v) = %v, want %v", c.df, c.conf, got, c.want)
		}
	}
}

func TestTCriticalLargeDF(t *testing.T) {
	// Large df approaches the normal quantile from above.
	got := TCritical(1000, 0.999)
	if got < 3.291 || got > 3.35 {
		t.Fatalf("TCritical(1000, 0.999) = %v, want ~3.30", got)
	}
	if TCritical(100, 0.95) < TCritical(1000, 0.95) {
		t.Fatal("critical value should decrease with df")
	}
}

func TestTCriticalUnsupportedLevel(t *testing.T) {
	// 90% two-sided at large df: z = 1.645.
	got := TCritical(10000, 0.90)
	if math.Abs(got-1.645) > 0.01 {
		t.Fatalf("TCritical(10000, 0.90) = %v, want ≈1.645", got)
	}
	if TCritical(0, 0.95) != TCritical(1, 0.95) {
		t.Fatal("df<1 should clamp to 1")
	}
}

func TestNormQuantile(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0}, {0.975, 1.960}, {0.995, 2.576}, {0.9995, 3.291}, {0.025, -1.960},
	}
	for _, c := range cases {
		if got := normQuantile(c.p); math.Abs(got-c.want) > 0.002 {
			t.Errorf("normQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsInf(normQuantile(0), -1) || !math.IsInf(normQuantile(1), 1) {
		t.Error("edge quantiles should be infinite")
	}
}

func TestPairDifferenceAgreement(t *testing.T) {
	// Two noisy measurements of the same quantity: null supported.
	rng := rand.New(rand.NewPCG(3, 4))
	x := make([]float64, 40)
	y := make([]float64, 40)
	for i := range x {
		base := 0.05
		x[i] = base + rng.NormFloat64()*0.01
		y[i] = base + rng.NormFloat64()*0.01
	}
	r := PairDifference(x, y, 0.999)
	if !r.NullSupported {
		t.Fatalf("agreeing tests rejected: %v", r)
	}
	if !strings.Contains(r.String(), "agree") {
		t.Fatalf("String() = %q", r.String())
	}
}

func TestPairDifferenceDisagreement(t *testing.T) {
	// y systematically underestimates x by 4 sigma: null rejected.
	rng := rand.New(rand.NewPCG(5, 6))
	x := make([]float64, 40)
	y := make([]float64, 40)
	for i := range x {
		x[i] = 0.10 + rng.NormFloat64()*0.005
		y[i] = 0.05 + rng.NormFloat64()*0.005
	}
	r := PairDifference(x, y, 0.999)
	if r.NullSupported {
		t.Fatalf("clearly different tests not rejected: %v", r)
	}
	if r.MeanDiff < 0.03 {
		t.Fatalf("MeanDiff = %v", r.MeanDiff)
	}
	if !strings.Contains(r.String(), "differ") {
		t.Fatalf("String() = %q", r.String())
	}
}

func TestPairDifferenceDegenerate(t *testing.T) {
	r := PairDifference([]float64{1}, []float64{2}, 0.999)
	if !r.NullSupported || !math.IsInf(r.Hi, 1) {
		t.Fatalf("degenerate pair test: %+v", r)
	}
	// Mismatched lengths truncate to the shorter.
	r = PairDifference([]float64{1, 2, 3}, []float64{1, 2}, 0.95)
	if r.N != 2 {
		t.Fatalf("N = %d, want 2", r.N)
	}
}

func TestPairDifferenceIdentical(t *testing.T) {
	x := []float64{0.1, 0.2, 0.3, 0.4}
	r := PairDifference(x, x, 0.999)
	if !r.NullSupported || r.MeanDiff != 0 {
		t.Fatalf("identical series: %+v", r)
	}
}

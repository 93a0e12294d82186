package numeric

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// Bisect finds a root of f in [a, b] by bisection. f(a) and f(b) must have
// opposite signs (or one of them must be zero). The result is within tol of
// a true root. It is the plain reference Brent is checked against
// (TestBrentMatchesBisect); production code uses Brent.
func Bisect(f func(float64) float64, a, b, tol float64) (float64, error) {
	if tol <= 0 {
		tol = DefaultTol
	}
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if math.Signbit(fa) == math.Signbit(fb) {
		return 0, fmt.Errorf("%w: f(%g)=%g, f(%g)=%g", ErrNoBracket, a, fa, b, fb)
	}
	for i := 0; i < 200; i++ {
		m := a + (b-a)/2
		fm := f(m)
		if fm == 0 || (b-a)/2 < tol {
			return m, nil
		}
		if math.Signbit(fm) == math.Signbit(fa) {
			a, fa = m, fm
		} else {
			b = m
		}
	}
	return a + (b-a)/2, nil // 200 halvings exhaust float64 resolution
}

func TestBisectSimpleRoots(t *testing.T) {
	cases := []struct {
		name string
		f    func(float64) float64
		a, b float64
		want float64
	}{
		{"linear", func(x float64) float64 { return x - 3 }, 0, 10, 3},
		{"quadratic", func(x float64) float64 { return x*x - 2 }, 0, 2, math.Sqrt2},
		{"cosine", math.Cos, 0, 3, math.Pi / 2},
		{"exp", func(x float64) float64 { return math.Exp(x) - 5 }, 0, 3, math.Log(5)},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			got, err := Bisect(c.f, c.a, c.b, 1e-12)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-c.want) > 1e-10 {
				t.Errorf("root = %.14f, want %.14f", got, c.want)
			}
		})
	}
}

func TestBisectEndpointRoots(t *testing.T) {
	f := func(x float64) float64 { return x }
	if got, err := Bisect(f, 0, 1, 1e-12); err != nil || got != 0 {
		t.Errorf("root at left endpoint: got %g, err %v", got, err)
	}
	if got, err := Bisect(f, -1, 0, 1e-12); err != nil || got != 0 {
		t.Errorf("root at right endpoint: got %g, err %v", got, err)
	}
}

func TestBisectNoBracket(t *testing.T) {
	f := func(x float64) float64 { return x*x + 1 }
	if _, err := Bisect(f, -1, 1, 1e-12); !errors.Is(err, ErrNoBracket) {
		t.Errorf("want ErrNoBracket, got %v", err)
	}
}

func TestBrentMatchesBisect(t *testing.T) {
	fns := []func(float64) float64{
		func(x float64) float64 { return x*x*x - x - 2 },
		func(x float64) float64 { return math.Sin(x) - 0.5 },
		func(x float64) float64 { return math.Exp(-x) - x },
	}
	brackets := [][2]float64{{1, 2}, {0, 1}, {0, 1}}
	for i, f := range fns {
		a, b := brackets[i][0], brackets[i][1]
		rb, err := Brent(f, a, b, 1e-13)
		if err != nil {
			t.Fatalf("Brent fn %d: %v", i, err)
		}
		ri, err := Bisect(f, a, b, 1e-13)
		if err != nil {
			t.Fatalf("Bisect fn %d: %v", i, err)
		}
		if math.Abs(rb-ri) > 1e-9 {
			t.Errorf("fn %d: Brent %.14f vs Bisect %.14f", i, rb, ri)
		}
		if math.Abs(f(rb)) > 1e-9 {
			t.Errorf("fn %d: |f(root)| = %g", i, math.Abs(f(rb)))
		}
	}
}

func TestBrentNoBracket(t *testing.T) {
	f := func(x float64) float64 { return 1 + x*x }
	if _, err := Brent(f, -2, 2, 1e-12); !errors.Is(err, ErrNoBracket) {
		t.Errorf("want ErrNoBracket, got %v", err)
	}
}

func TestNewtonBracketed(t *testing.T) {
	// The percolation-style equation: s - 1 + exp(-a s) = 0 with a = 3.
	a := 3.0
	f := func(s float64) float64 { return s - 1 + math.Exp(-a*s) }
	df := func(s float64) float64 { return 1 - a*math.Exp(-a*s) }
	got, err := NewtonBracketed(f, df, 1e-9, 1, 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f(got)) > 1e-12 {
		t.Errorf("residual %g", f(got))
	}
	// Known value: S solves S = 1 - e^{-3S}; S ≈ 0.940479...
	if math.Abs(got-0.9404798) > 1e-6 {
		t.Errorf("root %.7f, want ~0.9404798", got)
	}
}

func TestNewtonBracketedFlatDerivative(t *testing.T) {
	// df returns zero everywhere; must still converge by bisection.
	f := func(x float64) float64 { return x - 0.25 }
	df := func(float64) float64 { return 0 }
	got, err := NewtonBracketed(f, df, 0, 1, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.25) > 1e-10 {
		t.Errorf("root %.12f, want 0.25", got)
	}
}

func TestFixedPointContraction(t *testing.T) {
	// g(x) = cos(x) has the Dottie number as unique fixed point.
	got, err := FixedPoint(math.Cos, 0.5, 1, 1e-13, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.7390851332151607) > 1e-9 {
		t.Errorf("fixed point %.14f", got)
	}
}

func TestFixedPointDamping(t *testing.T) {
	// g(x) = 2.8(1-x)x: undamped iteration oscillates for the logistic
	// map at r=2.8? (r<3 converges, but slowly); damping should converge.
	g := func(x float64) float64 { return 2.8 * x * (1 - x) }
	got, err := FixedPoint(g, 0.3, 0.5, 1e-12, 5000)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - 1/2.8
	if math.Abs(got-want) > 1e-8 {
		t.Errorf("fixed point %.12f, want %.12f", got, want)
	}
}

func TestFixedPointBadDamping(t *testing.T) {
	if _, err := FixedPoint(math.Cos, 0, 0, 1e-12, 10); err == nil {
		t.Error("damping 0 accepted")
	}
	if _, err := FixedPoint(math.Cos, 0, 1.5, 1e-12, 10); err == nil {
		t.Error("damping 1.5 accepted")
	}
}

func TestFixedPointNoConverge(t *testing.T) {
	g := func(x float64) float64 { return -x } // oscillates forever
	if _, err := FixedPoint(g, 1, 1, 1e-15, 50); !errors.Is(err, ErrNoConverge) {
		t.Errorf("want ErrNoConverge, got %v", err)
	}
}

func TestRK4ExponentialDecay(t *testing.T) {
	// dy/dt = -y, y(0) = 1 => y(t) = e^-t.
	f := func(_ float64, y, dydt []float64) { dydt[0] = -y[0] }
	y := RK4(f, []float64{1}, 0, 2, 200)
	if math.Abs(y[0]-math.Exp(-2)) > 1e-8 {
		t.Errorf("y(2) = %.10f, want %.10f", y[0], math.Exp(-2))
	}
}

func TestRK4Harmonic(t *testing.T) {
	// y'' = -y as a system; energy must be conserved to high accuracy.
	f := func(_ float64, y, dydt []float64) {
		dydt[0] = y[1]
		dydt[1] = -y[0]
	}
	y := RK4(f, []float64{1, 0}, 0, 2*math.Pi, 1000)
	if math.Abs(y[0]-1) > 1e-8 || math.Abs(y[1]) > 1e-8 {
		t.Errorf("after full period: y = %v, want [1 0]", y)
	}
}

func TestRK4SILogistic(t *testing.T) {
	// The SI epidemic: di/dt = beta i (1-i) has closed form
	// i(t) = i0 e^{beta t} / (1 - i0 + i0 e^{beta t}).
	beta, i0 := 1.7, 0.01
	f := func(_ float64, y, dydt []float64) { dydt[0] = beta * y[0] * (1 - y[0]) }
	y := RK4(f, []float64{i0}, 0, 5, 500)
	e := i0 * math.Exp(beta*5) / (1 - i0 + i0*math.Exp(beta*5))
	if math.Abs(y[0]-e) > 1e-6 {
		t.Errorf("SI at t=5: %.8f, want %.8f", y[0], e)
	}
}

func TestRK4DoesNotMutateInput(t *testing.T) {
	y0 := []float64{1, 2}
	f := func(_ float64, y, dydt []float64) { dydt[0], dydt[1] = y[1], -y[0] }
	_ = RK4(f, y0, 0, 1, 10)
	if y0[0] != 1 || y0[1] != 2 {
		t.Errorf("RK4 mutated y0: %v", y0)
	}
}

func TestLinspace(t *testing.T) {
	xs := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	if len(xs) != len(want) {
		t.Fatalf("len %d", len(xs))
	}
	for i := range xs {
		if math.Abs(xs[i]-want[i]) > 1e-15 {
			t.Errorf("xs[%d] = %g, want %g", i, xs[i], want[i])
		}
	}
}

func TestLinspaceEndpointExact(t *testing.T) {
	xs := Linspace(1.1, 6.7, 15)
	if xs[len(xs)-1] != 6.7 {
		t.Errorf("last element %.17f, want exactly 6.7", xs[len(xs)-1])
	}
}

func TestArangePaperSweep(t *testing.T) {
	// The paper's fanout sweep: 1.10 to 6.7 step 0.4 → 15 points.
	xs := Arange(1.1, 6.7, 0.4)
	if len(xs) != 15 {
		t.Fatalf("sweep has %d points, want 15: %v", len(xs), xs)
	}
	if math.Abs(xs[0]-1.1) > 1e-12 || math.Abs(xs[14]-6.7) > 1e-9 {
		t.Errorf("sweep endpoints %g..%g", xs[0], xs[14])
	}
}

func TestBisectQuickProperty(t *testing.T) {
	// For random monotone linear functions the root must be recovered.
	f := func(slope, root uint16) bool {
		m := float64(slope%100) + 1
		r := float64(root%1000)/1000*8 - 4 // in [-4, 4)
		fn := func(x float64) float64 { return m * (x - r) }
		got, err := Bisect(fn, -5, 5, 1e-12)
		return err == nil && math.Abs(got-r) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBrentPercolationEquation(b *testing.B) {
	a := 3.6
	f := func(s float64) float64 { return s - 1 + math.Exp(-a*s) }
	for i := 0; i < b.N; i++ {
		if _, err := Brent(f, 1e-12, 1, 1e-14); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRK4SI(b *testing.B) {
	f := func(_ float64, y, dydt []float64) { dydt[0] = 1.7 * y[0] * (1 - y[0]) }
	y0 := []float64{0.01}
	for i := 0; i < b.N; i++ {
		_ = RK4(f, y0, 0, 5, 100)
	}
}

package la

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDenseSetAt(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(0, 2, 5)
	m.Addf(0, 2, 1.5)
	if got := m.At(0, 2); got != 6.5 {
		t.Fatalf("At(0,2) = %v, want 6.5", got)
	}
	if got := m.At(1, 1); got != 0 {
		t.Fatalf("At(1,1) = %v, want 0", got)
	}
}

func TestIdentityMulVec(t *testing.T) {
	id := Identity(4)
	v := Vector{1, -2, 3, -4}
	dst := NewVector(4)
	id.MulVec(dst, v)
	for i := range v {
		if dst[i] != v[i] {
			t.Fatalf("I*v mismatch at %d: %v != %v", i, dst[i], v[i])
		}
	}
}

func TestMulVecKnown(t *testing.T) {
	m := NewDense(2, 3)
	// [1 2 3; 4 5 6] * [1 1 1]^T = [6 15]^T
	for j := 0; j < 3; j++ {
		m.Set(0, j, float64(j+1))
		m.Set(1, j, float64(j+4))
	}
	dst := NewVector(2)
	m.MulVec(dst, Vector{1, 1, 1})
	if dst[0] != 6 || dst[1] != 15 {
		t.Fatalf("got %v, want [6 15]", dst)
	}
}

func TestMulKnown(t *testing.T) {
	a := NewDense(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 3)
	a.Set(1, 1, 4)
	b := NewDense(2, 2)
	b.Set(0, 0, 5)
	b.Set(0, 1, 6)
	b.Set(1, 0, 7)
	b.Set(1, 1, 8)
	c := a.Mul(b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("C[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestLUSolveKnown(t *testing.T) {
	a := NewDense(3, 3)
	rows := [][]float64{{2, 1, 1}, {1, 3, 2}, {1, 0, 0}}
	for i := range rows {
		for j := range rows[i] {
			a.Set(i, j, rows[i][j])
		}
	}
	// Known solution x = [1, 2, 3]: b = A*x.
	x := Vector{1, 2, 3}
	b := NewVector(3)
	a.MulVec(b, x)
	got, err := SolveDense(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if !almostEq(got[i], x[i], 1e-12) {
			t.Fatalf("x[%d] = %v, want %v", i, got[i], x[i])
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := NewDense(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := Factorize(a); err == nil {
		t.Fatal("expected singular-matrix error")
	}
}

func TestLUDet(t *testing.T) {
	a := NewDense(2, 2)
	a.Set(0, 0, 3)
	a.Set(0, 1, 1)
	a.Set(1, 0, 2)
	a.Set(1, 1, 5)
	f, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(f.Det(), 13, 1e-12) {
		t.Fatalf("Det = %v, want 13", f.Det())
	}
}

// Property: for random well-conditioned matrices, Solve(A, A*x) ≈ x.
func TestLUSolveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(12)
		a := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, r.NormFloat64())
			}
			a.Addf(i, i, float64(n)) // diagonal dominance for conditioning
		}
		x := NewVector(n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		b := NewVector(n)
		a.MulVec(b, x)
		got, err := SolveDense(a, b)
		if err != nil {
			return false
		}
		return got.MaxAbsDiff(x) < 1e-8
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

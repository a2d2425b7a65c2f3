package la

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewDense returns a zero Rows×Cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic("la: negative dimension")
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns m[i,j].
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns m[i,j] = v.
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Addf adds v to m[i,j].
func (m *Dense) Addf(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero sets every entry to 0.
func (m *Dense) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// MulVec computes dst = m * v. dst must have length m.Rows and v length
// m.Cols; dst must not alias v.
func (m *Dense) MulVec(dst, v Vector) {
	if len(v) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("la: MulVec shape mismatch (%dx%d)*%d -> %d", m.Rows, m.Cols, len(v), len(dst)))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, a := range row {
			s += float64(a * v[j])
		}
		dst[i] = s
	}
}

// Mul returns m * b as a new matrix.
func (m *Dense) Mul(b *Dense) *Dense {
	if m.Cols != b.Rows {
		panic("la: Mul shape mismatch")
	}
	out := NewDense(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Data[i*out.Cols+j] += float64(a * b.At(k, j))
			}
		}
	}
	return out
}

// LU holds an LU factorization with partial pivoting: P*A = L*U.
type LU struct {
	n    int
	lu   []float64 // packed L (unit diagonal, below) and U (on/above diagonal)
	piv  []int     // row permutation
	sign int       // permutation parity, for Det
}

// Factorize computes the LU decomposition of the square matrix a with
// partial pivoting. It returns an error when the matrix is singular to
// working precision.
func Factorize(a *Dense) (*LU, error) {
	if a.Rows != a.Cols {
		panic("la: Factorize requires a square matrix")
	}
	n := a.Rows
	f := &LU{n: n, lu: make([]float64, n*n), piv: make([]int, n), sign: 1}
	copy(f.lu, a.Data)
	for i := range f.piv {
		f.piv[i] = i
	}
	lu := f.lu
	for k := 0; k < n; k++ {
		// Find pivot.
		p := k
		maxAbs := math.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu[i*n+k]); a > maxAbs {
				maxAbs = a
				p = i
			}
		}
		if maxAbs == 0 || math.IsNaN(maxAbs) {
			return nil, fmt.Errorf("la: singular matrix at column %d", k)
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu[p*n+j], lu[k*n+j] = lu[k*n+j], lu[p*n+j]
			}
			f.piv[p], f.piv[k] = f.piv[k], f.piv[p]
			f.sign = -f.sign
		}
		pivVal := lu[k*n+k]
		for i := k + 1; i < n; i++ {
			m := lu[i*n+k] / pivVal
			lu[i*n+k] = m
			if m == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu[i*n+j] -= float64(m * lu[k*n+j])
			}
		}
	}
	return f, nil
}

// Solve solves A*x = b for x, overwriting nothing; the solution is returned
// as a fresh vector.
func (f *LU) Solve(b Vector) Vector {
	if len(b) != f.n {
		panic("la: Solve length mismatch")
	}
	n := f.n
	x := make(Vector, n)
	// Apply permutation.
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution (L has unit diagonal).
	for i := 1; i < n; i++ {
		var s float64
		row := f.lu[i*n : i*n+i]
		for j, l := range row {
			s += float64(l * x[j])
		}
		x[i] -= s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		var s float64
		for j := i + 1; j < n; j++ {
			s += float64(f.lu[i*n+j] * x[j])
		}
		x[i] = (x[i] - s) / f.lu[i*n+i]
	}
	return x
}

// Det returns the determinant of the factorized matrix.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	for i := 0; i < f.n; i++ {
		d *= f.lu[i*f.n+i]
	}
	return d
}

// SolveDense solves A*x = b directly (factorize + solve); convenient for
// one-off solves.
func SolveDense(a *Dense, b Vector) (Vector, error) {
	f, err := Factorize(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}

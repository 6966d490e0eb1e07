package cmat

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Cholesky is the lower-triangular factor L of a Hermitian positive-definite
// matrix A = L·Lᴴ. Factoring once and running triangular solves replaces
// explicit inversion on the MVDR hot path: the K per-pixel (or per-bin)
// weight computations against one shared covariance each cost two O(n²)
// substitutions instead of touching an O(n³) inverse, and the factorization
// itself is both cheaper and numerically better conditioned than
// Gauss-Jordan elimination.
//
// A Cholesky is immutable after Factor and safe for concurrent solves.
type Cholesky struct {
	n int
	// l is the row-major n×n lower triangle; the strict upper triangle is
	// zero. Diagonal entries are real and positive.
	l []complex128
	// loading is the diagonal loading the factorization had to add to make
	// the input positive definite; zero when the input factored as-is.
	loading float64
}

// factorTolScale sets the pivot floor relative to the largest diagonal
// entry: a pivot below maxDiag·n·factorTolScale means the matrix is not
// positive definite at working precision.
const factorTolScale = 1e-14

// Factor computes the Cholesky factorization of a Hermitian
// positive-definite matrix. Inputs that are Hermitian but not positive
// definite (rank-deficient sample covariances, negative rounding residue)
// are retried with escalating diagonal loading — the same regularization
// beamforming applies deliberately — so that every physically meaningful
// covariance factors; Loading reports what was added. Non-square or
// zero-diagonal matrices return an error.
func Factor(m *Matrix) (*Cholesky, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("cmat: cannot factor %dx%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	if n == 0 {
		return &Cholesky{}, nil
	}
	var maxDiag float64
	for i := 0; i < n; i++ {
		if d := math.Abs(real(m.At(i, i))); d > maxDiag {
			maxDiag = d
		}
	}
	// NaN diagonals leave maxDiag at zero (NaN fails every > comparison),
	// so the degenerate check below catches them too.
	if maxDiag <= 0 || math.IsInf(maxDiag, 0) {
		return nil, fmt.Errorf("cmat: cannot factor matrix with degenerate diagonal (max |diag| = %g)", maxDiag)
	}
	tol := maxDiag * float64(n) * factorTolScale
	c := &Cholesky{n: n, l: make([]complex128, n*n)}
	// Non-PD inputs retry with loading growing from a rounding-scale nudge
	// toward the diagonal scale; beyond that the input is garbage.
	loading := 0.0
	for attempt := 0; attempt < 5; attempt++ {
		if c.factorAttempt(m, loading, tol) {
			c.loading = loading
			return c, nil
		}
		switch attempt {
		case 0:
			loading = maxDiag * 1e-12
		default:
			loading *= 1e3
		}
		if loading > maxDiag {
			break
		}
	}
	return nil, fmt.Errorf("cmat: matrix not positive definite even with diagonal loading %g", loading)
}

// factorAttempt runs one left-looking factorization pass with the given
// diagonal loading, reporting whether every pivot stayed above tol. Only the
// lower triangle of m is read, so slightly non-Hermitian rounding residue in
// the upper triangle cannot perturb the factor.
func (c *Cholesky) factorAttempt(m *Matrix, loading, tol float64) bool {
	n := c.n
	l := c.l
	for i := range l {
		l[i] = 0
	}
	for j := 0; j < n; j++ {
		rowJ := l[j*n : j*n+j]
		d := real(m.At(j, j)) + loading
		for _, v := range rowJ {
			d -= real(v)*real(v) + imag(v)*imag(v)
		}
		if !(d > tol) {
			return false
		}
		pivot := math.Sqrt(d)
		l[j*n+j] = complex(pivot, 0)
		invPivot := 1 / pivot
		for i := j + 1; i < n; i++ {
			rowI := l[i*n : i*n+j]
			s := m.At(i, j)
			for k, v := range rowJ {
				s -= rowI[k] * complex(real(v), -imag(v))
			}
			l[i*n+j] = s * complex(invPivot, 0)
		}
	}
	return true
}

// Size returns the factored matrix dimension.
func (c *Cholesky) Size() int { return c.n }

// Loading returns the diagonal loading Factor added to reach positive
// definiteness (zero for well-conditioned input).
func (c *Cholesky) Loading() float64 { return c.loading }

// SolveInPlace overwrites x with A⁻¹·x via forward substitution against L
// and back substitution against Lᴴ. It is allocation-free and safe to call
// concurrently on distinct vectors.
func (c *Cholesky) SolveInPlace(x []complex128) error {
	n := c.n
	if len(x) != n {
		return fmt.Errorf("cmat: solve dimension mismatch: factor %dx%d with vector %d", n, n, len(x))
	}
	l := c.l
	// L·y = b.
	for i := 0; i < n; i++ {
		s := x[i]
		row := l[i*n : i*n+i]
		for k, v := range row {
			s -= v * x[k]
		}
		x[i] = s / l[i*n+i]
	}
	// Lᴴ·x = y, walking columns of L as conjugated rows.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			v := l[k*n+i]
			s -= complex(real(v), -imag(v)) * x[k]
		}
		x[i] = s / l[i*n+i]
	}
	return nil
}

// SolveVecTo writes A⁻¹·b into dst. dst and b may alias; both must have the
// factored dimension.
func (c *Cholesky) SolveVecTo(dst, b []complex128) error {
	if len(dst) != c.n || len(b) != c.n {
		return fmt.Errorf("cmat: solve dimension mismatch: factor %dx%d with dst %d, b %d", c.n, c.n, len(dst), len(b))
	}
	copy(dst, b)
	return c.SolveInPlace(dst)
}

// Reconstruct returns L·Lᴴ, the (possibly loaded) matrix the factor
// represents; tests use it to bound factorization error.
func (c *Cholesky) Reconstruct() *Matrix {
	n := c.n
	out := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s complex128
			limit := i
			if j < limit {
				limit = j
			}
			for k := 0; k <= limit; k++ {
				s += c.l[i*n+k] * cmplx.Conj(c.l[j*n+k])
			}
			out.Set(i, j, s)
		}
	}
	return out
}

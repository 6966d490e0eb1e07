// Package cmat implements the small dense complex linear algebra MVDR
// beamforming needs: Hermitian covariance matrices, Cholesky factorization
// with triangular solves (the hot path), and matrix-vector products.
// Matrices are tiny (M = number of microphones, typically 6), so clarity
// beats asymptotics — but the factor-once/solve-K structure still matters
// because K is the pixel count.
package cmat

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Matrix is a dense row-major complex matrix.
type Matrix struct {
	Rows, Cols int
	Data       []complex128
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("cmat: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]complex128, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v complex128) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// AddScaledIdentity adds s to every diagonal element in place and returns m.
// It is used for diagonal loading of covariance estimates.
func (m *Matrix) AddScaledIdentity(s complex128) *Matrix {
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	for i := 0; i < n; i++ {
		m.Data[i*m.Cols+i] += s
	}
	return m
}

// MulVec computes m·x for a vector x of length m.Cols.
func (m *Matrix) MulVec(x []complex128) ([]complex128, error) {
	out := make([]complex128, m.Rows)
	if err := m.MulVecTo(out, x); err != nil {
		return nil, err
	}
	return out, nil
}

// MulVecTo writes m·x into dst, which must have length m.Rows and must not
// alias x. Hot loops pass a reused destination to keep the product
// allocation-free.
func (m *Matrix) MulVecTo(dst, x []complex128) error {
	if len(x) != m.Cols || len(dst) != m.Rows {
		return fmt.Errorf("cmat: MulVecTo dimension mismatch: %dx%d by %d into %d", m.Rows, m.Cols, len(x), len(dst))
	}
	for i := 0; i < m.Rows; i++ {
		var s complex128
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
	return nil
}

// Hermitian reports whether m equals its conjugate transpose within tol.
func (m *Matrix) Hermitian(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i; j < m.Cols; j++ {
			if cmplx.Abs(m.At(i, j)-cmplx.Conj(m.At(j, i))) > tol {
				return false
			}
		}
	}
	return true
}

// Dot computes the Hermitian inner product conj(a)ᵀ·b.
func Dot(a, b []complex128) complex128 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var s complex128
	for i := 0; i < n; i++ {
		s += cmplx.Conj(a[i]) * b[i]
	}
	return s
}

// OuterAccumulate adds the outer product x·conj(x)ᵀ into m in place. It is
// the building block for sample covariance estimation.
func OuterAccumulate(m *Matrix, x []complex128) error {
	if m.Rows != m.Cols || m.Rows != len(x) {
		return fmt.Errorf("cmat: outer product dimension mismatch: %dx%d with %d", m.Rows, m.Cols, len(x))
	}
	for i := range x {
		xi := x[i]
		for j := range x {
			m.Data[i*m.Cols+j] += xi * cmplx.Conj(x[j])
		}
	}
	return nil
}

// Scale multiplies every element in place and returns m.
func (m *Matrix) Scale(s complex128) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// Trace returns the sum of diagonal elements of a square matrix.
func (m *Matrix) Trace() complex128 {
	var t complex128
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	for i := 0; i < n; i++ {
		t += m.At(i, i)
	}
	return t
}

// MaxAbsDiff returns the largest element-wise magnitude difference between
// a and b, or +Inf when shapes differ.
func MaxAbsDiff(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return math.Inf(1)
	}
	var worst float64
	for i := range a.Data {
		if d := cmplx.Abs(a.Data[i] - b.Data[i]); d > worst {
			worst = d
		}
	}
	return worst
}

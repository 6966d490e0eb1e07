package cmat

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func randMatrix(rng *rand.Rand, n int) *Matrix {
	m := New(n, n)
	for i := range m.Data {
		m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return m
}

func matMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s complex128
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 6, 10} {
		m := randMatrix(rng, n)
		inv, err := m.Inverse()
		if err != nil {
			t.Fatalf("n=%d: inverse: %v", n, err)
		}
		if d := MaxAbsDiff(matMul(m, inv), Identity(n)); d > 1e-9 {
			t.Errorf("n=%d: M·M⁻¹ differs from I by %g", n, d)
		}
		if d := MaxAbsDiff(matMul(inv, m), Identity(n)); d > 1e-9 {
			t.Errorf("n=%d: M⁻¹·M differs from I by %g", n, d)
		}
	}
}

func TestInverseSingular(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 2)
	m.Set(1, 1, 4)
	if _, err := m.Inverse(); err == nil {
		t.Error("singular matrix inverted")
	}
	r := New(2, 3)
	if _, err := r.Inverse(); err == nil {
		t.Error("rectangular matrix inverted")
	}
}

// TestInverseScaledTolerance pins the singularity guard's scaling: the
// tolerance tracks the matrix norm, so a numerically singular Hermitian
// matrix is rejected no matter how large its entries are, while a merely
// ill-conditioned (but invertible) one still inverts.
func TestInverseScaledTolerance(t *testing.T) {
	// Rank-one Hermitian matrix with huge entries: exactly singular, but
	// every pivot magnitude dwarfs any absolute epsilon. An absolute
	// pivot floor (the old 1e-300 guard) would "invert" it and return
	// garbage; the norm-scaled tolerance must reject it.
	v := []complex128{1e150, complex(0, 2e150), -3e150}
	sing := New(3, 3)
	for i := range v {
		for j := range v {
			sing.Set(i, j, v[i]*cmplx.Conj(v[j]))
		}
	}
	if _, err := sing.Inverse(); err == nil {
		t.Error("norm-scaled tolerance accepted a rank-one matrix with huge entries")
	}

	// Ill-conditioned but invertible Hermitian matrix (condition ~1e8):
	// must still invert, with the round trip accurate relative to the
	// conditioning.
	ill := New(2, 2)
	ill.Set(0, 0, 1)
	ill.Set(0, 1, complex(0, 1))
	ill.Set(1, 0, complex(0, -1))
	ill.Set(1, 1, 1+1e-8)
	inv, err := ill.Inverse()
	if err != nil {
		t.Fatalf("ill-conditioned matrix rejected: %v", err)
	}
	if d := MaxAbsDiff(matMul(ill, inv), Identity(2)); d > 1e-6 {
		t.Errorf("ill-conditioned round trip off by %g", d)
	}
}

func TestMulVec(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2i)
	m.Set(1, 0, -1)
	m.Set(1, 1, 3)
	got, err := m.MulVec([]complex128{1, 1i})
	if err != nil {
		t.Fatal(err)
	}
	want := []complex128{1 + 2i*1i, -1 + 3i}
	for i := range want {
		if cmplx.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("index %d: got %v want %v", i, got[i], want[i])
		}
	}
	if _, err := m.MulVec([]complex128{1}); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestOuterAccumulateHermitian(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(5)
		m := New(n, n)
		for k := 0; k < 4; k++ {
			x := make([]complex128, n)
			for i := range x {
				x[i] = complex(r.NormFloat64(), r.NormFloat64())
			}
			if err := OuterAccumulate(m, x); err != nil {
				return false
			}
		}
		// Accumulated outer products are Hermitian with non-negative
		// diagonal.
		if !m.Hermitian(1e-10) {
			return false
		}
		for i := 0; i < n; i++ {
			if real(m.At(i, i)) < 0 || math.Abs(imag(m.At(i, i))) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestOuterAccumulateDimension(t *testing.T) {
	m := New(2, 2)
	if err := OuterAccumulate(m, []complex128{1, 2, 3}); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestDot(t *testing.T) {
	a := []complex128{1 + 1i, 2}
	b := []complex128{1, 1i}
	// conj(a)ᵀ·b = (1-1i)(1) + 2(1i) = 1 - 1i + 2i = 1 + 1i.
	if got := Dot(a, b); cmplx.Abs(got-(1+1i)) > 1e-12 {
		t.Errorf("Dot = %v, want 1+1i", got)
	}
}

func TestTraceScaleAddIdentity(t *testing.T) {
	m := Identity(3)
	m.Scale(2)
	if m.Trace() != 6 {
		t.Errorf("trace %v, want 6", m.Trace())
	}
	m.AddScaledIdentity(1)
	if m.Trace() != 9 {
		t.Errorf("trace %v, want 9", m.Trace())
	}
	if m.At(0, 1) != 0 {
		t.Error("off-diagonal changed")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := Identity(2)
	c := m.Clone()
	c.Set(0, 0, 5)
	if m.At(0, 0) != 1 {
		t.Error("Clone shares storage")
	}
}

func TestMaxAbsDiffShapes(t *testing.T) {
	if d := MaxAbsDiff(Identity(2), Identity(3)); !math.IsInf(d, 1) {
		t.Errorf("shape mismatch diff = %g, want +Inf", d)
	}
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(-1, 2) did not panic")
		}
	}()
	New(-1, 2)
}

// Inverse returns the inverse of a square matrix via Gauss-Jordan
// elimination with partial pivoting. Singular and near-singular matrices
// return an error: a pivot is rejected when it falls below a tolerance
// scaled to the matrix's infinity norm, so an ill-conditioned covariance
// fails deterministically instead of amplifying rounding noise into
// garbage weights. It is test-only: the MVDR path solves through
// Factor/SolveInPlace, and Inverse is the Gauss-Jordan reference the
// Cholesky tests compare against.
func (m *Matrix) Inverse() (*Matrix, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("cmat: cannot invert %dx%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	// Infinity norm (max absolute row sum) of the input fixes the scale
	// pivots are judged against.
	var norm float64
	for i := 0; i < n; i++ {
		var rowSum float64
		for j := 0; j < n; j++ {
			rowSum += cmplx.Abs(m.At(i, j))
		}
		if rowSum > norm {
			norm = rowSum
		}
	}
	pivotTol := norm * float64(n) * 1e-14
	a := m.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		// Partial pivot: largest magnitude in this column at or below the
		// diagonal.
		pivot, pivotMag := -1, 0.0
		for r := col; r < n; r++ {
			if mag := cmplx.Abs(a.At(r, col)); mag > pivotMag {
				pivot, pivotMag = r, mag
			}
		}
		if pivot < 0 || pivotMag <= pivotTol {
			return nil, fmt.Errorf("cmat: singular matrix (pivot %d below tolerance %g)", col, pivotTol)
		}
		if pivot != col {
			swapRows(a, pivot, col)
			swapRows(inv, pivot, col)
		}
		// Scale the pivot row.
		p := a.At(col, col)
		for j := 0; j < n; j++ {
			a.Set(col, j, a.At(col, j)/p)
			inv.Set(col, j, inv.At(col, j)/p)
		}
		// Eliminate the column from every other row.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a.At(r, col)
			// Exact-zero entries need no elimination; any nonzero f,
			// however tiny, must still be eliminated.
			if f == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				a.Set(r, j, a.At(r, j)-f*a.At(col, j))
				inv.Set(r, j, inv.At(r, j)-f*inv.At(col, j))
			}
		}
	}
	return inv, nil
}

func swapRows(m *Matrix, i, j int) {
	ri := m.Data[i*m.Cols : (i+1)*m.Cols]
	rj := m.Data[j*m.Cols : (j+1)*m.Cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

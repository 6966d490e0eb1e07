package cmat

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// randHermitianPD builds a random Hermitian positive-definite matrix as
// B·Bᴴ + I, the shape of every diagonally loaded sample covariance the
// beamformer factors.
func randHermitianPD(rng *rand.Rand, n int) *Matrix {
	b := randMatrix(rng, n)
	out := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s complex128
			for k := 0; k < n; k++ {
				s += b.At(i, k) * cmplx.Conj(b.At(j, k))
			}
			out.Set(i, j, s)
		}
	}
	out.AddScaledIdentity(1)
	return out
}

// TestCholeskySolveMatchesInverse pins the hot-path triangular solves
// against the reference Gauss-Jordan inverse: A⁻¹·b via Factor+SolveVecTo
// must agree with Inverse+MulVec to 1e-12 relative precision for every
// array size the pipeline uses (M = 2..8).
func TestCholeskySolveMatchesInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for n := 2; n <= 8; n++ {
		for trial := 0; trial < 10; trial++ {
			m := randHermitianPD(rng, n)
			chol, err := Factor(m)
			if err != nil {
				t.Fatalf("n=%d: factor: %v", n, err)
			}
			if chol.Loading() > 0 {
				t.Fatalf("n=%d: PD matrix needed loading %g", n, chol.Loading())
			}
			inv, err := m.Inverse()
			if err != nil {
				t.Fatalf("n=%d: inverse: %v", n, err)
			}
			b := make([]complex128, n)
			var scale float64
			for i := range b {
				b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
				scale += cmplx.Abs(b[i])
			}
			got := make([]complex128, n)
			if err := chol.SolveVecTo(got, b); err != nil {
				t.Fatalf("n=%d: solve: %v", n, err)
			}
			want, err := inv.MulVec(b)
			if err != nil {
				t.Fatalf("n=%d: mulvec: %v", n, err)
			}
			tol := 1e-12 * scale
			for i := range got {
				if cmplx.Abs(got[i]-want[i]) > tol {
					t.Fatalf("n=%d trial %d entry %d: solve %v, inverse path %v", n, trial, i, got[i], want[i])
				}
			}
		}
	}
}

// TestCholeskyReconstruct checks L·Lᴴ reproduces the factored matrix.
func TestCholeskyReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{1, 2, 4, 8} {
		m := randHermitianPD(rng, n)
		chol, err := Factor(m)
		if err != nil {
			t.Fatalf("n=%d: factor: %v", n, err)
		}
		if d := MaxAbsDiff(chol.Reconstruct(), m); d > 1e-12*float64(n*n) {
			t.Errorf("n=%d: L·Lᴴ differs from input by %g", n, d)
		}
	}
}

// TestCholeskyLoadingFallback feeds a Hermitian but rank-deficient matrix
// (a rank-one outer product) and expects Factor to succeed by escalating
// diagonal loading rather than erroring out.
func TestCholeskyLoadingFallback(t *testing.T) {
	n := 4
	v := []complex128{1, 1i, -1, 2}
	m := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, v[i]*cmplx.Conj(v[j]))
		}
	}
	chol, err := Factor(m)
	if err != nil {
		t.Fatalf("rank-one matrix did not factor with loading: %v", err)
	}
	if chol.Loading() <= 0 {
		t.Error("rank-one matrix factored without loading")
	}
	// The factor must represent exactly the loaded matrix m + loading·I.
	// (A solve round trip would be bounded only by the loaded matrix's
	// condition number ~σ₁/loading, far looser than this direct check.)
	loaded := m.Clone()
	loaded.AddScaledIdentity(complex(chol.Loading(), 0))
	if d := MaxAbsDiff(chol.Reconstruct(), loaded); d > 1e-12*real(m.Trace()) {
		t.Errorf("L·Lᴴ differs from loaded input by %g", d)
	}
	// And solves must at least produce finite output.
	x := make([]complex128, 4)
	if err := chol.SolveVecTo(x, []complex128{1, 2, 3, 4}); err != nil {
		t.Fatalf("solve: %v", err)
	}
	for i, v := range x {
		if cmplx.IsNaN(v) || cmplx.IsInf(v) {
			t.Errorf("solve entry %d not finite: %v", i, v)
		}
	}
}

// TestCholeskyRejectsGarbage covers the error paths: rectangular input,
// zero and NaN diagonals, and dimension mismatches on solve.
func TestCholeskyRejectsGarbage(t *testing.T) {
	if _, err := Factor(New(2, 3)); err == nil {
		t.Error("rectangular matrix factored")
	}
	if _, err := Factor(New(3, 3)); err == nil {
		t.Error("zero matrix factored")
	}
	nan := New(2, 2)
	nan.Set(0, 0, complex(math.NaN(), 0))
	nan.Set(1, 1, complex(math.NaN(), 0))
	if _, err := Factor(nan); err == nil {
		t.Error("NaN-diagonal matrix factored")
	}
	good := Identity(3)
	chol, err := Factor(good)
	if err != nil {
		t.Fatalf("identity: %v", err)
	}
	if err := chol.SolveInPlace(make([]complex128, 2)); err == nil {
		t.Error("short vector solved")
	}
	if err := chol.SolveVecTo(make([]complex128, 3), make([]complex128, 4)); err == nil {
		t.Error("mismatched SolveVecTo accepted")
	}
}

// TestCholeskySolveVecToAliasing checks dst may alias b.
func TestCholeskySolveVecToAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := randHermitianPD(rng, 5)
	chol, err := Factor(m)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]complex128, 5)
	for i := range b {
		b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	want := make([]complex128, 5)
	if err := chol.SolveVecTo(want, b); err != nil {
		t.Fatal(err)
	}
	if err := chol.SolveVecTo(b, b); err != nil {
		t.Fatal(err)
	}
	for i := range b {
		if b[i] != want[i] {
			t.Fatalf("aliased solve entry %d: %v != %v", i, b[i], want[i])
		}
	}
}

// TestCholeskyEmpty covers the 0x0 edge.
func TestCholeskyEmpty(t *testing.T) {
	chol, err := Factor(New(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if chol.Size() != 0 {
		t.Errorf("size %d, want 0", chol.Size())
	}
	if err := chol.SolveInPlace(nil); err != nil {
		t.Errorf("empty solve: %v", err)
	}
}

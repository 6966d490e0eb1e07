package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// rfftSizes covers every code path of the real transforms: powers of two
// (radix-2 half transform), even non-powers of two (mixed-radix half
// transform, and Bluestein for 74 = 2·37), odd lengths (full-length
// fallback) and the tiny edge cases.
var rfftSizes = []int{1, 2, 4, 6, 8, 16, 64, 74, 100, 256, 1000, 2640, 4096, 3, 5, 7, 37, 99, 2641}

// TestFFTRealMatchesFullFFT pins the packed RFFT against the complex FFT
// reference path: FFTReal(x) must equal the first n/2+1 bins of FFT on the
// widened signal to 1e-12 per unit magnitude.
func TestFFTRealMatchesFullFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range rfftSizes {
		x := randReal(rng, n)
		cx := make([]complex128, n)
		for i, v := range x {
			cx[i] = complex(v, 0)
		}
		want := FFT(cx)[:n/2+1]
		got := FFTReal(x)
		if len(got) != n/2+1 {
			t.Fatalf("n=%d: packed length %d, want %d", n, len(got), n/2+1)
		}
		tol := 1e-12 * float64(n)
		for k := range got {
			if cmplx.Abs(got[k]-want[k]) > tol {
				t.Fatalf("n=%d bin %d: RFFT %v, FFT reference %v", n, k, got[k], want[k])
			}
		}
	}
}

// TestIRFFTMatchesFullIFFT pins IRFFT against the complex IFFT reference:
// inverting a packed Hermitian spectrum must match the real part of the
// full-length inverse.
func TestIRFFTMatchesFullIFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range rfftSizes {
		// Build a packed spectrum with real DC/Nyquist, then mirror it
		// into a full Hermitian spectrum for the reference path.
		spec := make([]complex128, n/2+1)
		for k := range spec {
			spec[k] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		spec[0] = complex(real(spec[0]), 0)
		if n%2 == 0 && n > 1 {
			spec[n/2] = complex(real(spec[n/2]), 0)
		}
		full := make([]complex128, n)
		copy(full, spec)
		for k := 1; k <= (n-1)/2; k++ {
			full[n-k] = complex(real(spec[k]), -imag(spec[k]))
		}
		want := IFFT(full)
		got := IRFFT(spec, n)
		tol := 1e-12 * float64(n)
		for i := range got {
			if math.Abs(got[i]-real(want[i])) > tol {
				t.Fatalf("n=%d sample %d: IRFFT %g, IFFT reference %g", n, i, got[i], real(want[i]))
			}
		}
	}
}

// TestRFFTRoundTrip checks IRFFT(FFTReal(x), n) == x for every size class.
func TestRFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range rfftSizes {
		x := randReal(rng, n)
		back := IRFFT(FFTReal(x), n)
		tol := 1e-12 * float64(n)
		for i := range x {
			if math.Abs(back[i]-x[i]) > tol {
				t.Fatalf("n=%d sample %d: round trip %g, want %g", n, i, back[i], x[i])
			}
		}
	}
}

func TestFFTRealEmpty(t *testing.T) {
	if got := FFTReal(nil); got != nil {
		t.Errorf("FFTReal(nil) = %v, want nil", got)
	}
	if got := IRFFT(nil, 0); got != nil {
		t.Errorf("IRFFT(nil, 0) = %v, want nil", got)
	}
}

func TestRealFFTIntoPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("realFFTInto with short output did not panic")
		}
	}()
	realFFTInto(make([]complex128, 2), make([]float64, 8))
}

func TestIRFFTPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("IRFFT with short spectrum did not panic")
		}
	}()
	IRFFT(make([]complex128, 2), 8)
}

// TestAnalyticSignalMatchesWidened pins the half-length analytic-signal
// path against the full-length widened formulation.
func TestAnalyticSignalMatchesWidened(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{2, 4, 16, 100, 256, 2640} {
		x := randReal(rng, n)
		got := AnalyticSignal(x)
		want := analyticWidened(x)
		tol := 1e-12 * float64(n)
		for i := range got {
			if cmplx.Abs(got[i]-want[i]) > tol {
				t.Fatalf("n=%d sample %d: half-path %v, widened %v", n, i, got[i], want[i])
			}
		}
	}
}

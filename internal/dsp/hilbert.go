package dsp

import "math/cmplx"

// AnalyticSignal computes the discrete analytic signal of x via the FFT
// method: zero negative frequencies, double positive ones, so the real
// part of the result equals x and the imaginary part is its Hilbert
// transform.
//
// Even lengths (the pipeline's beep windows and matched-filter outputs)
// run entirely over half-length real transforms: the Hilbert transform is
// the IRFFT of -i·X(k) over the packed one-sided spectrum — a Hermitian
// spectrum, since the Hilbert transform of a real signal is real — and the
// analytic signal is assembled as x + i·H(x). That is two n/2-point
// complex transforms instead of the two n-point transforms of the widened
// formulation, with all intermediates pooled.
func AnalyticSignal(x []float64) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	if n%2 != 0 {
		return analyticWidened(x)
	}
	h := n / 2
	p := rfftPlanFor(n)
	specp := p.getSpec()
	spec := *specp
	realFFTInto(spec, x)
	// Hilbert multiplier -i·sign: -i on 0 < k < n/2, zero at DC and
	// Nyquist. -i·(a+bi) = b - ai.
	spec[0], spec[h] = 0, 0
	for k := 1; k < h; k++ {
		v := spec[k]
		spec[k] = complex(imag(v), -real(v))
	}
	zp := p.getHalf()
	z := *zp
	irfftHalfInto(z, spec, p)
	out := make([]complex128, n)
	for k := 0; k < h; k++ {
		out[2*k] = complex(x[2*k], real(z[k]))
		out[2*k+1] = complex(x[2*k+1], imag(z[k]))
	}
	p.putHalf(zp)
	p.putSpec(specp)
	return out
}

// analyticWidened is the full-length fallback for odd lengths: widen to
// complex, transform, apply the one-sided multiplier, inverse transform.
func analyticWidened(x []float64) []complex128 {
	n := len(x)
	cx := make([]complex128, n)
	for i, v := range x {
		cx[i] = complex(v, 0)
	}
	spec := FFT(cx)
	half := n / 2
	for k := 1; k < half; k++ {
		spec[k] *= 2
	}
	if n%2 != 0 {
		spec[half] *= 2
	}
	// For even n the Nyquist bin (k == half) stays as-is.
	for k := half + 1; k < n; k++ {
		spec[k] = 0
	}
	return IFFT(spec)
}

// Envelope returns the amplitude envelope |analytic(x)| of the real signal
// x. This is the envelope-detection scheme EchoImage applies to matched
// filter outputs before peak picking.
func Envelope(x []float64) []float64 {
	a := AnalyticSignal(x)
	out := make([]float64, len(a))
	for i, v := range a {
		out[i] = cmplx.Abs(v)
	}
	return out
}

// MovingAverage smooths x with a centered moving average of the given
// window length using a running-sum implementation. Edges use the available
// samples only, so the output length matches the input.
func MovingAverage(x []float64, window int) []float64 {
	n := len(x)
	if n == 0 {
		return nil
	}
	if window <= 1 {
		out := make([]float64, n)
		copy(out, x)
		return out
	}
	if window > n {
		window = n
	}
	halfL := (window - 1) / 2
	halfR := window / 2
	// Prefix sums for O(n) evaluation.
	prefix := make([]float64, n+1)
	for i, v := range x {
		prefix[i+1] = prefix[i] + v
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		lo := i - halfL
		if lo < 0 {
			lo = 0
		}
		hi := i + halfR + 1
		if hi > n {
			hi = n
		}
		out[i] = (prefix[hi] - prefix[lo]) / float64(hi-lo)
	}
	return out
}

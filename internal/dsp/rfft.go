package dsp

import (
	"fmt"
	"math"
	"sync"
)

// Real-input transforms. A length-n real signal has a Hermitian spectrum,
// so only bins 0..n/2 carry information; FFTReal returns exactly that
// packed one-sided spectrum (length n/2+1) and IRFFT inverts it. Even
// lengths run a true RFFT — the signal is packed into an n/2-point complex
// transform and untangled with cached twiddles — which halves the dominant
// transform cost of the pipeline (analytic conversion, matched filtering,
// STFT, noise synthesis) relative to widening to complex128. The n/2-point
// transform goes through fftInPlace: radix-2/4 for powers of two, the
// Stockham mixed-radix plan for the front end's 2,640- and 24,000-sample
// signals (half lengths 2³·3·5·11 and 2⁵·3·5³), Bluestein only when n/2
// has a prime factor above 13. Odd lengths fall back to a full-length FFT
// and truncate; they only occur on cold paths.

// rfftPlan caches what one even-length real transform needs: the untangling
// twiddles tw[k] = exp(-2πik/n) for k ≤ n/2, and a scratch pool for the
// half-length complex work buffer so steady-state transforms allocate only
// their result.
type rfftPlan struct {
	n    int
	half int
	tw   []complex128
	// scratch pools *[]complex128 of length half; spec pools packed
	// spectra of length half+1; pad pools *[]float64 of length n for
	// callers that zero-pad real signals up to the transform size.
	scratch sync.Pool
	spec    sync.Pool
	pad     sync.Pool
}

var rfftPlans sync.Map // int -> *rfftPlan

func rfftPlanFor(n int) *rfftPlan {
	if v, ok := rfftPlans.Load(n); ok {
		return v.(*rfftPlan)
	}
	v, _ := rfftPlans.LoadOrStore(n, newRFFTPlan(n))
	return v.(*rfftPlan)
}

func newRFFTPlan(n int) *rfftPlan {
	half := n / 2
	p := &rfftPlan{n: n, half: half, tw: make([]complex128, half+1)}
	for k := 0; k <= half; k++ {
		s, c := math.Sincos(2 * math.Pi * float64(k) / float64(n))
		p.tw[k] = complex(c, -s)
	}
	p.scratch.New = func() any {
		buf := make([]complex128, half)
		return &buf
	}
	p.spec.New = func() any {
		buf := make([]complex128, half+1)
		return &buf
	}
	p.pad.New = func() any {
		buf := make([]float64, n)
		return &buf
	}
	return p
}

func (p *rfftPlan) getHalf() *[]complex128  { return p.scratch.Get().(*[]complex128) }
func (p *rfftPlan) putHalf(b *[]complex128) { p.scratch.Put(b) }
func (p *rfftPlan) getSpec() *[]complex128  { return p.spec.Get().(*[]complex128) }
func (p *rfftPlan) putSpec(b *[]complex128) { p.spec.Put(b) }
func (p *rfftPlan) getPad() *[]float64      { return p.pad.Get().(*[]float64) }
func (p *rfftPlan) putPad(b *[]float64)     { p.pad.Put(b) }

// FFTReal computes the DFT of a real signal and returns the packed
// one-sided spectrum: bins 0 through n/2 inclusive (length n/2+1 — DC up
// to and including Nyquist for even n). The remaining bins of the full
// transform are the conjugate mirror spec[n-k] = conj(spec[k]) and are not
// materialized; use IRFFT (with the original n) to invert, or FFT on a
// widened signal when the full two-sided spectrum is genuinely needed.
func FFTReal(x []float64) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	out := make([]complex128, n/2+1)
	realFFTInto(out, x)
	return out
}

// realFFTInto computes the packed one-sided spectrum of x into out, which
// must have length len(x)/2+1 — the allocation-free core of FFTReal for
// callers that own their buffers (the STFT loop, the correlators).
func realFFTInto(out []complex128, x []float64) {
	n := len(x)
	if len(out) != n/2+1 {
		panic(fmt.Sprintf("dsp: real FFT output length %d for signal length %d (want %d)", len(out), n, n/2+1))
	}
	switch {
	case n == 0:
		return
	case n == 1:
		out[0] = complex(x[0], 0)
		return
	case n%2 != 0:
		// Odd length: full-length transform, truncated. Cold path.
		cx := make([]complex128, n)
		for i, v := range x {
			cx[i] = complex(v, 0)
		}
		copy(out, FFT(cx)[:n/2+1])
		return
	}
	p := rfftPlanFor(n)
	h := p.half
	zp := p.getHalf()
	z := *zp
	for k := 0; k < h; k++ {
		z[k] = complex(x[2*k], x[2*k+1])
	}
	fftInPlace(z, false)
	// Untangle: with Ze/Zo the half-length DFTs of the even/odd samples,
	// Z[k] = Ze[k] + i·Zo[k], so
	//	Ze[k] = (Z[k] + conj(Z[h-k]))/2,  Zo[k] = -i·(Z[k] - conj(Z[h-k]))/2
	// and X[k] = Ze[k] + tw[k]·Zo[k] for k = 0..h (indices mod h).
	tw := p.tw
	for k := 0; k <= h; k++ {
		var zk, zmk complex128
		if k < h {
			zk = z[k]
		} else {
			zk = z[0]
		}
		if k == 0 {
			zmk = z[0]
		} else {
			zmk = z[h-k]
		}
		zc := complex(real(zmk), -imag(zmk))
		xe := (zk + zc) * 0.5
		xo := (zk - zc) * complex(0, -0.5)
		out[k] = xe + tw[k]*xo
	}
	p.putHalf(zp)
}

// IRFFT inverts a packed one-sided spectrum (as produced by FFTReal) back
// to the length-n real signal, including the 1/n normalization. spec must
// have length n/2+1; bins above Nyquist are implied by conjugate symmetry.
// The imaginary parts of the DC (and, for even n, Nyquist) bins are
// ignored, as they have no real-signal counterpart.
func IRFFT(spec []complex128, n int) []float64 {
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	irfftInto(out, spec)
	return out
}

// irfftInto inverts the packed spectrum into out (length n), the
// allocation-free core of IRFFT.
func irfftInto(out []float64, spec []complex128) {
	n := len(out)
	if len(spec) != n/2+1 {
		panic(fmt.Sprintf("dsp: packed spectrum length %d for signal length %d (want %d)", len(spec), n, n/2+1))
	}
	switch {
	case n == 0:
		return
	case n == 1:
		out[0] = real(spec[0])
		return
	case n%2 != 0:
		// Odd length: rebuild the full Hermitian spectrum and run a
		// full-length inverse. Cold path.
		full := make([]complex128, n)
		copy(full, spec)
		for k := 1; k <= n/2; k++ {
			v := spec[k]
			full[n-k] = complex(real(v), -imag(v))
		}
		td := IFFT(full)
		for i, v := range td {
			out[i] = real(v)
		}
		return
	}
	p := rfftPlanFor(n)
	h := p.half
	zp := p.getHalf()
	z := *zp
	irfftHalfInto(z, spec, p)
	for k := 0; k < h; k++ {
		out[2*k] = real(z[k])
		out[2*k+1] = imag(z[k])
	}
	p.putHalf(zp)
}

// irfftHalfInto computes the half-length complex sequence z[k] =
// x[2k] + i·x[2k+1] of the inverse transform into z (length n/2): the
// inverse untangling followed by a normalized half-length IFFT. Callers
// that interleave the result themselves (the analytic-signal path) consume
// z directly.
func irfftHalfInto(z []complex128, spec []complex128, p *rfftPlan) {
	h := p.half
	tw := p.tw
	for k := 0; k < h; k++ {
		xk := spec[k]
		xm := spec[h-k]
		if k == 0 {
			// Real signals have real DC and Nyquist bins; drop any
			// imaginary residue so the round trip stays real.
			xk = complex(real(spec[0]), 0)
			xm = complex(real(spec[h]), 0)
		}
		xc := complex(real(xm), -imag(xm))
		xe := (xk + xc) * 0.5
		xo := (xk - xc) * 0.5
		// tw[k] is unit magnitude: conj is the inverse.
		twc := complex(real(tw[k]), -imag(tw[k]))
		xo *= twc
		z[k] = xe + xo*complex(0, 1)
	}
	fftInPlace(z, true)
	scale := complex(1/float64(h), 0)
	for k := range z {
		z[k] *= scale
	}
}

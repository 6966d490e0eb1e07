// Package dsp provides the signal-processing primitives EchoImage is built
// on: FFTs, Butterworth bandpass filters, Hilbert transforms, matched
// filtering, envelope detection and peak picking.
//
// Everything is implemented from scratch on top of the standard library so
// the module has no external dependencies.
package dsp

import (
	"fmt"
	"math/bits"
)

// FFT computes the discrete Fourier transform of x into a newly allocated
// slice, dispatching on the length as fftInPlace does. The zero-length
// transform is the empty slice.
func FFT(x []complex128) []complex128 {
	if len(x) == 0 {
		return nil
	}
	out := make([]complex128, len(x))
	copy(out, x)
	fftInPlace(out, false)
	return out
}

// IFFT computes the inverse discrete Fourier transform of x, including the
// 1/N normalization, and returns a newly allocated slice.
func IFFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	out := make([]complex128, n)
	copy(out, x)
	fftInPlace(out, true)
	scale := complex(1/float64(n), 0)
	for i := range out {
		out[i] *= scale
	}
	return out
}

// fftInPlace runs the unscaled transform of z in place, choosing the
// algorithm by length alone: the radix-2/4 kernel for powers of two, the
// Stockham mixed-radix plan for lengths whose prime factors are all at
// most maxRadix (the front end's 2·3·5·11 beep and noise lengths), and
// Bluestein for the rest, where a large prime would make a direct
// butterfly slower than the chirp-z convolution.
func fftInPlace(z []complex128, inverse bool) {
	n := len(z)
	switch {
	case n&(n-1) == 0:
		fftRadix2(z, inverse)
	case smooth(n):
		mixedPlanFor(n, inverse).transform(z)
	default:
		bluesteinTo(z, z, inverse)
	}
}

// fftRadix2 runs an iterative power-of-two DIT FFT in place, radix-4 with a
// single radix-2 stage when log₂(n) is odd. When inverse is true the
// conjugate transform is computed (without the 1/N scale). Twiddle factors
// and the bit-reversal permutation come from the per-size plan cache.
//
// The radix-4 butterfly evaluates four outputs with three complex
// multiplies — against four for two fused radix-2 stages — and halves the
// number of passes over the data:
//
//	p = x[k], q = W^{2j}·x[k+h], r = W^{j}·x[k+2h], s = W^{3j}·x[k+3h]
//	a = p+q, b = p-q, c = r+s, d = ∓i·(r-s)
//	x[k] = a+c, x[k+h] = b+d, x[k+2h] = a-c, x[k+3h] = b-d
//
// (the ∓i rotation is a component swap, not a multiply). The quarter-stride
// assignment of W^{j} vs W^{2j} follows from fusing two radix-2 stages over
// bit-reversed input, which is what keeps the standard bit-reversal
// permutation valid for a radix-4 pass.
func fftRadix2(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	p := fftPlanFor(n)
	swaps := p.swaps
	for s := 0; s < len(swaps); s += 2 {
		i, j := swaps[s], swaps[s+1]
		x[i], x[j] = x[j], x[i]
	}
	tw := p.fwd
	rot := complex(0, -1)
	if inverse {
		tw = p.inv
		rot = complex(0, 1)
	}
	size := 4
	if bits.TrailingZeros(uint(n))&1 == 1 {
		// Odd log₂(n): one twiddle-free radix-2 pass, radix-4 from size 8.
		for start := 0; start+1 < n; start += 2 {
			a, b := x[start], x[start+1]
			x[start] = a + b
			x[start+1] = a - b
		}
		size = 8
	}
	for ; size <= n; size <<= 2 {
		h := size >> 2
		stride := n / size
		for start := 0; start < n; start += size {
			// j == 0: every twiddle is 1.
			k := start
			pv, q, r, s := x[k], x[k+h], x[k+2*h], x[k+3*h]
			a, b := pv+q, pv-q
			c, d := r+s, (r-s)*rot
			x[k], x[k+h] = a+c, b+d
			x[k+2*h], x[k+3*h] = a-c, b-d
			ti := stride
			for k := start + 1; k < start+h; k++ {
				pv := x[k]
				q := x[k+h] * tw[2*ti]
				r := x[k+2*h] * tw[ti]
				s := x[k+3*h] * tw[3*ti]
				a, b := pv+q, pv-q
				c, d := r+s, (r-s)*rot
				x[k], x[k+h] = a+c, b+d
				x[k+2*h], x[k+3*h] = a-c, b-d
				ti += stride
			}
		}
	}
}

// bluesteinTo computes an arbitrary-length DFT via the chirp-z transform,
// re-expressed as a power-of-two convolution, writing into out, which must
// have the length of x and may alias it (x is fully consumed before out is
// written). The chirp factors and the spectrum of the (fixed, per-size) b
// sequence come from the plan cache, so each call performs two radix-2
// transforms over a pooled scratch buffer.
func bluesteinTo(out, x []complex128, inverse bool) {
	n := len(x)
	p := bluesteinPlanFor(n, inverse)
	w, m := p.w, p.m
	bufp := p.scratch.Get().(*[]complex128)
	a := *bufp
	for k := 0; k < n; k++ {
		a[k] = x[k] * w[k]
	}
	for k := n; k < m; k++ {
		a[k] = 0
	}
	fftRadix2(a, false)
	bfft := p.bfft
	for i := range a {
		a[i] *= bfft[i]
	}
	fftRadix2(a, true)
	scale := complex(1/float64(m), 0)
	for k := 0; k < n; k++ {
		out[k] = a[k] * scale * w[k]
	}
	p.scratch.Put(bufp)
}

// NextPow2 returns the smallest power of two >= n. It panics for n < 0 and
// returns 1 for n <= 1.
func NextPow2(n int) int {
	if n < 0 {
		panic(fmt.Sprintf("dsp: NextPow2 of negative length %d", n))
	}
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

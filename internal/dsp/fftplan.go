package dsp

import (
	"math"
	"math/bits"
	"sync"
)

// fftPlan caches everything a radix-2 transform of one size needs: the
// bit-reversal permutation (stored as swap pairs) and the twiddle-factor
// tables for both transform directions. Looking twiddles up in a table
// instead of running the w *= wStep recurrence removes the serial
// dependency chain from the butterfly loop and, more importantly, the
// rounding error the recurrence accumulates over long stages.
type fftPlan struct {
	n     int
	swaps []int32      // flattened (i, j) pairs with i < j
	fwd   []complex128 // fwd[k] = exp(-2πik/n), k < 3n/4 (radix-4 reads W^{3j})
	inv   []complex128 // inv[k] = exp(+2πik/n), k < 3n/4
}

// fftPlans caches plans by transform size. Transform sizes are few (one or
// two per capture geometry), so the map stays tiny.
var fftPlans sync.Map // int -> *fftPlan

func fftPlanFor(n int) *fftPlan {
	if v, ok := fftPlans.Load(n); ok {
		return v.(*fftPlan)
	}
	v, _ := fftPlans.LoadOrStore(n, newFFTPlan(n))
	return v.(*fftPlan)
}

func newFFTPlan(n int) *fftPlan {
	p := &fftPlan{n: n}
	// Bit-reversal permutation as swap pairs.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			p.swaps = append(p.swaps, int32(i), int32(j))
		}
	}
	// The radix-4 butterfly's largest twiddle index is 3j·(n/size) < 3n/4.
	limit := 3 * n / 4
	if limit < 1 {
		limit = 1
	}
	p.fwd = make([]complex128, limit)
	p.inv = make([]complex128, limit)
	for k := 0; k < limit; k++ {
		s, c := math.Sincos(2 * math.Pi * float64(k) / float64(n))
		p.fwd[k] = complex(c, -s)
		p.inv[k] = complex(c, s)
	}
	return p
}

// bluesteinPlan caches the per-size state of the chirp-z transform: the
// quadratic chirp factors w, the forward FFT of the b sequence (which
// depends only on n and the transform direction), and a scratch-buffer pool
// for the convolution workspace. This turns every Bluestein call from three
// radix-2 FFTs plus two trigonometric table builds into two FFTs and a few
// pointwise passes.
type bluesteinPlan struct {
	n, m    int
	w       []complex128 // w[k] = exp(sign·iπk²/n)
	bfft    []complex128 // forward FFT of b, b[k] = b[m-k] = conj(w[k])
	scratch sync.Pool    // *[]complex128 of length m
}

// planKey keys the per-direction plan caches (Bluestein, mixed radix).
type planKey struct {
	n       int
	inverse bool
}

var bluesteinPlans sync.Map // planKey -> *bluesteinPlan

func bluesteinPlanFor(n int, inverse bool) *bluesteinPlan {
	key := planKey{n, inverse}
	if v, ok := bluesteinPlans.Load(key); ok {
		return v.(*bluesteinPlan)
	}
	v, _ := bluesteinPlans.LoadOrStore(key, newBluesteinPlan(n, inverse))
	return v.(*bluesteinPlan)
}

func newBluesteinPlan(n int, inverse bool) *bluesteinPlan {
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	p := &bluesteinPlan{n: n}
	// w[k] = exp(sign * i*pi*k^2/n). Use k^2 mod 2n to keep the argument
	// bounded for large k.
	p.w = make([]complex128, n)
	for k := 0; k < n; k++ {
		kk := (int64(k) * int64(k)) % int64(2*n)
		s, c := math.Sincos(sign * math.Pi * float64(kk) / float64(n))
		p.w[k] = complex(c, s)
	}
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	p.m = m
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		bk := complex(real(p.w[k]), -imag(p.w[k]))
		b[k] = bk
		if k > 0 {
			b[m-k] = bk
		}
	}
	fftRadix2(b, false)
	p.bfft = b
	p.scratch.New = func() any {
		buf := make([]complex128, m)
		return &buf
	}
	return p
}

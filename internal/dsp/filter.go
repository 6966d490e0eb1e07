package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Biquad is a single second-order IIR section in direct form II transposed:
//
//	y[n] = b0*x[n] + b1*x[n-1] + b2*x[n-2] - a1*y[n-1] - a2*y[n-2]
//
// with a0 normalized to one.
type Biquad struct {
	B0, B1, B2 float64
	A1, A2     float64
}

// Filter applies the biquad to x and returns a newly allocated output with
// zero initial state.
func (q Biquad) Filter(x []float64) []float64 {
	out := make([]float64, len(x))
	var z1, z2 float64
	for i, v := range x {
		y := q.B0*v + z1
		z1 = q.B1*v - q.A1*y + z2
		z2 = q.B2*v - q.A2*y
		out[i] = y
	}
	return out
}

// Response evaluates the biquad's complex frequency response at the
// normalized angular frequency w (radians/sample).
func (q Biquad) Response(w float64) complex128 {
	z1 := cmplx.Rect(1, -w)
	z2 := z1 * z1
	num := complex(q.B0, 0) + complex(q.B1, 0)*z1 + complex(q.B2, 0)*z2
	den := complex(1, 0) + complex(q.A1, 0)*z1 + complex(q.A2, 0)*z2
	return num / den
}

// Stable reports whether both poles of the biquad lie strictly inside the
// unit circle.
func (q Biquad) Stable() bool {
	// Jury criterion for a 2nd-order polynomial z^2 + a1 z + a2.
	return math.Abs(q.A2) < 1 && math.Abs(q.A1) < 1+q.A2
}

// SOSFilter is a cascade of biquad sections with an overall gain. It is the
// standard numerically robust representation for higher-order IIR filters.
type SOSFilter struct {
	Sections []Biquad
	Gain     float64
}

// Filter applies the full cascade to x.
func (f *SOSFilter) Filter(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	f.filterInPlace(out)
	return out
}

// filterInPlace runs the cascade over x in place. Adjacent sections are
// fused into one pass — each section's recurrence is evaluated with exactly
// the same operations as a standalone pass (so results are bitwise
// identical), but the intermediate signal never round-trips through memory
// and the per-section output allocations disappear. FiltFilt runs four
// section passes over every channel of every beep, which made the cascade
// the pipeline's second-largest cost after the FFTs.
func (f *SOSFilter) filterInPlace(x []float64) {
	i := 0
	for ; i+1 < len(f.Sections); i += 2 {
		biquadPair(f.Sections[i], f.Sections[i+1], x)
	}
	if i < len(f.Sections) {
		s := f.Sections[i]
		var z1, z2 float64
		for j, v := range x {
			y := s.B0*v + z1
			z1 = s.B1*v - s.A1*y + z2
			z2 = s.B2*v - s.A2*y
			x[j] = y
		}
	}
	// Exact on purpose: skip-if-identity fast path, Gain is exactly 1
	// when the cascade was never normalized.
	if f.Gain != 1 {
		for j := range x {
			x[j] *= f.Gain
		}
	}
}

// biquadPair applies two cascaded biquads in one pass over x.
func biquadPair(a, b Biquad, x []float64) {
	var az1, az2, bz1, bz2 float64
	for i, v := range x {
		y1 := a.B0*v + az1
		az1 = a.B1*v - a.A1*y1 + az2
		az2 = a.B2*v - a.A2*y1
		y2 := b.B0*y1 + bz1
		bz1 = b.B1*y1 - b.A1*y2 + bz2
		bz2 = b.B2*y1 - b.A2*y2
		x[i] = y2
	}
}

// Response evaluates the cascade's complex frequency response at normalized
// angular frequency w (radians/sample).
func (f *SOSFilter) Response(w float64) complex128 {
	h := complex(f.Gain, 0)
	for _, s := range f.Sections {
		h *= s.Response(w)
	}
	return h
}

// Stable reports whether every section is stable.
func (f *SOSFilter) Stable() bool {
	for _, s := range f.Sections {
		if !s.Stable() {
			return false
		}
	}
	return true
}

// FiltFilt applies the cascade forward and backward for zero-phase
// filtering, using reflected padding at both ends to suppress edge
// transients, and returns the filtered x, len(x) long. The padded
// signal is filtered in dst's backing array when its capacity has room
// for it and in a fresh one otherwise; the result is the start of that
// array, so a caller that passes the previous result back as dst filters
// without allocating. x must not overlap dst.
func (f *SOSFilter) FiltFilt(dst, x []float64) []float64 {
	n := len(x)
	if n == 0 {
		return nil
	}
	pad := 3 * (2*len(f.Sections) + 1)
	if pad >= n {
		pad = n - 1
	}
	ext := dst[:0]
	if cap(ext) < n+2*pad {
		ext = make([]float64, 0, n+2*pad)
	}
	// Odd reflection about the first and last samples, matching the
	// conventional filtfilt padding.
	for i := pad; i >= 1; i-- {
		ext = append(ext, 2*x[0]-x[i])
	}
	ext = append(ext, x...)
	for i := n - 2; i >= n-1-pad; i-- {
		ext = append(ext, 2*x[n-1]-x[i])
	}
	f.filterInPlace(ext)
	reverse(ext)
	f.filterInPlace(ext)
	reverse(ext)
	copy(ext, ext[pad:pad+n])
	return ext[:n]
}

func reverse(x []float64) {
	for i, j := 0, len(x)-1; i < j; i, j = i+1, j-1 {
		x[i], x[j] = x[j], x[i]
	}
}

// ButterworthBandpass designs a bandpass Butterworth filter of the given
// prototype order (the resulting digital filter has order 2*order) with edge
// frequencies lo and hi in Hz at sample rate fs. The design path is the
// classical analog-prototype / LP→BP transform / bilinear-transform chain,
// emitting second-order sections. The passband gain is normalized to one at
// the geometric center frequency.
func ButterworthBandpass(order int, lo, hi, fs float64) (*SOSFilter, error) {
	switch {
	case order < 1:
		return nil, fmt.Errorf("dsp: butterworth order %d < 1", order)
	case !(0 < lo && lo < hi):
		return nil, fmt.Errorf("dsp: invalid band edges lo=%g hi=%g", lo, hi)
	case hi >= fs/2:
		return nil, fmt.Errorf("dsp: upper edge %g Hz >= Nyquist %g Hz", hi, fs/2)
	}

	// Pre-warp the edges for the bilinear transform (fs2 = 2*fs).
	fs2 := 2 * fs
	wLo := fs2 * math.Tan(math.Pi*lo/fs)
	wHi := fs2 * math.Tan(math.Pi*hi/fs)
	bw := wHi - wLo
	w0 := math.Sqrt(wLo * wHi)

	// Analog Butterworth lowpass prototype poles on the unit circle's left
	// half-plane.
	proto := make([]complex128, order)
	for k := 0; k < order; k++ {
		theta := math.Pi * float64(2*k+order+1) / float64(2*order)
		proto[k] = cmplx.Rect(1, theta)
	}

	// LP→BP: each prototype pole p maps to the two roots of
	// s^2 - p*bw*s + w0^2 = 0.
	poles := make([]complex128, 0, 2*order)
	for _, p := range proto {
		pb := p * complex(bw/2, 0)
		disc := cmplx.Sqrt(pb*pb - complex(w0*w0, 0))
		poles = append(poles, pb+disc, pb-disc)
	}

	// Bilinear transform of poles; zeros land at z=+1 (order copies, from
	// the analog zeros at s=0) and z=-1 (order copies, from s=inf).
	zPoles := make([]complex128, len(poles))
	for i, p := range poles {
		zPoles[i] = (complex(fs2, 0) + p) / (complex(fs2, 0) - p)
	}

	// Group into biquads: pair each pole with its conjugate partner, give
	// every section one zero at +1 and one at -1.
	sections, err := pairConjugateSections(zPoles)
	if err != nil {
		return nil, err
	}
	f := &SOSFilter{Sections: sections, Gain: 1}

	// Normalize unity gain at the digital center frequency.
	wc := 2 * math.Pi * math.Sqrt(lo*hi) / fs
	mag := cmplx.Abs(f.Response(wc))
	// Exact on purpose: only an exactly zero |H| breaks the 1/mag
	// normalization below.
	if mag == 0 || math.IsNaN(mag) || math.IsInf(mag, 0) {
		return nil, fmt.Errorf("dsp: degenerate bandpass design (|H|=%g at center)", mag)
	}
	f.Gain = 1 / mag
	if !f.Stable() {
		return nil, fmt.Errorf("dsp: designed filter is unstable (order=%d lo=%g hi=%g fs=%g)", order, lo, hi, fs)
	}
	return f, nil
}

// pairConjugateSections pairs complex-conjugate poles into biquads with
// zeros at z=+1 and z=-1 (numerator z^2 - 1 per section).
func pairConjugateSections(poles []complex128) ([]Biquad, error) {
	const tol = 1e-9
	used := make([]bool, len(poles))
	sections := make([]Biquad, 0, len(poles)/2)
	for i := range poles {
		if used[i] {
			continue
		}
		used[i] = true
		pi := poles[i]
		// Find the closest match to conj(pi) among the unused poles.
		best, bestDist := -1, math.Inf(1)
		want := cmplx.Conj(pi)
		for j := i + 1; j < len(poles); j++ {
			if used[j] {
				continue
			}
			if d := cmplx.Abs(poles[j] - want); d < bestDist {
				best, bestDist = j, d
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("dsp: odd number of poles to pair")
		}
		if bestDist > 1e-6 && math.Abs(imag(pi)) > tol {
			return nil, fmt.Errorf("dsp: no conjugate partner for pole %v (closest at distance %g)", pi, bestDist)
		}
		used[best] = true
		pj := poles[best]
		// Denominator (z - pi)(z - pj) = z^2 - (pi+pj) z + pi*pj; both
		// coefficients are real for a conjugate pair.
		a1 := -real(pi + pj)
		a2 := real(pi * pj)
		sections = append(sections, Biquad{B0: 1, B1: 0, B2: -1, A1: a1, A2: a2})
	}
	return sections, nil
}

package dsp

import "math"

// MatchedFilter correlates the received signal r against the template s by
// convolving r with the conjugated, time-reversed template (Eq. 9 in the
// paper). For real templates this equals the sliding cross-correlation
//
//	C[t] = sum_k r[t+k] * s[k]
//
// evaluated for t in [0, len(r)-1]; lags that would read past the end of r
// use the available overlap only (zero padding). The output has the same
// length as r so sample index t corresponds directly to the arrival time of
// the template's leading edge.
func MatchedFilter(r, s []float64) []float64 {
	n, m := len(r), len(s)
	if n == 0 || m == 0 {
		return make([]float64, n)
	}
	full := CrossCorrelate(r, s)
	// CrossCorrelate returns lags -(m-1) .. (n-1); we keep lags 0 .. n-1.
	out := make([]float64, n)
	copy(out, full[m-1:])
	return out
}

// CrossCorrelate computes the full linear cross-correlation of r and s,
//
//	C[lag] = sum_k r[k+lag] * s[k],  lag = -(len(s)-1) .. len(r)-1,
//
// via real-input FFT convolution over packed one-sided spectra. The
// returned slice has length len(r)+len(s)-1 with index i corresponding to
// lag i-(len(s)-1).
func CrossCorrelate(r, s []float64) []float64 {
	n, m := len(r), len(s)
	if n == 0 || m == 0 {
		return nil
	}
	size := NextPow2(n + m - 1)
	p := rfftPlanFor(size)
	// Time-reverse s so convolution becomes correlation, exactly as the
	// planned path caches it.
	fs := p.getSpec()
	padp := p.getPad()
	pad := *padp
	for i := range pad {
		pad[i] = 0
	}
	for i, v := range s {
		pad[m-1-i] = v
	}
	realFFTInto(*fs, pad)
	out := realSpectrumConvolve(p, r, *fs, n+m-1)
	p.putSpec(fs)
	p.putPad(padp)
	return out
}

// realSpectrumConvolve circularly convolves r (zero-padded to the plan's
// transform size) with the packed spectrum fs and returns the first outLen
// samples. It is the shared engine of CrossCorrelate and the matched-filter
// plan: any path that caches fs and calls this produces bitwise-identical
// output to the uncached CrossCorrelate.
func realSpectrumConvolve(p *rfftPlan, r []float64, fs []complex128, outLen int) []float64 {
	padp := p.getPad()
	pad := *padp
	copy(pad, r)
	for i := len(r); i < len(pad); i++ {
		pad[i] = 0
	}
	frp := p.getSpec()
	fr := *frp
	realFFTInto(fr, pad)
	for i := range fr {
		fr[i] *= fs[i]
	}
	irfftInto(pad, fr)
	out := make([]float64, outLen)
	copy(out, pad)
	p.putSpec(frp)
	p.putPad(padp)
	return out
}

// Energy returns the sum of squared samples.
func Energy(x []float64) float64 {
	var e float64
	for _, v := range x {
		e += v * v
	}
	return e
}

// RMS returns the root-mean-square amplitude of x, or zero for an empty
// slice.
func RMS(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var e float64
	for _, v := range x {
		e += v * v
	}
	return math.Sqrt(e / float64(len(x)))
}

// Package beamform implements the spatial filtering EchoImage relies on:
// the narrowband MVDR (minimum variance distortionless response)
// beamformer over analytic signals, which degrades to delay-and-sum under
// identity noise, noise covariance estimation with diagonal loading, and
// beampattern evaluation.
package beamform

import (
	"fmt"
	"math/cmplx"
	"sync"

	"echoimage/internal/array"
	"echoimage/internal/cmat"
	"echoimage/internal/dsp"
)

// AnalyticChannels converts an M-channel real recording into complex
// analytic signals, one Hilbert transform per channel. Narrowband
// phase-shift beamforming requires the analytic representation so that
// steering-vector phase rotations realize time delays.
func AnalyticChannels(chans [][]float64) [][]complex128 {
	out := make([][]complex128, len(chans))
	for m, ch := range chans {
		out[m] = dsp.AnalyticSignal(ch)
	}
	return out
}

// EstimateCovariance computes the sample covariance of the M-channel
// analytic signal over the half-open sample range [start, end):
//
//	ρ = (1/N) Σ_t x(t)·x(t)ᴴ
//
// The matrix is normalized so its trace equals M (the paper's "normalized
// covariance matrix of the background noise"), then diagonally loaded with
// loading·I for numerical robustness. A zero-energy segment degrades to the
// identity matrix.
func EstimateCovariance(x [][]complex128, start, end int, loading float64) (*cmat.Matrix, error) {
	m := len(x)
	if m == 0 {
		return nil, fmt.Errorf("beamform: no channels")
	}
	n := len(x[0])
	for c := 1; c < m; c++ {
		if len(x[c]) != n {
			return nil, fmt.Errorf("beamform: channel %d length %d != %d", c, len(x[c]), n)
		}
	}
	if start < 0 {
		start = 0
	}
	if end > n {
		end = n
	}
	if start >= end {
		return nil, fmt.Errorf("beamform: empty covariance range [%d, %d)", start, end)
	}
	// Dimensions were validated above, so the outer products accumulate
	// without any per-sample error path. Only the upper triangle is
	// summed; the strict lower triangle is its exact conjugate mirror.
	cov := cmat.New(m, m)
	data := cov.Data
	for t := start; t < end; t++ {
		for i := 0; i < m; i++ {
			xi := x[i][t]
			row := data[i*m : (i+1)*m]
			for j := i; j < m; j++ {
				xj := x[j][t]
				row[j] += xi * complex(real(xj), -imag(xj))
			}
		}
	}
	for i := 1; i < m; i++ {
		for j := 0; j < i; j++ {
			v := data[j*m+i]
			data[i*m+j] = complex(real(v), -imag(v))
		}
	}
	cov.Scale(complex(1/float64(end-start), 0))

	tr := real(cov.Trace())
	if tr <= 1e-30 {
		// Degenerate (silent) segment: fall back to identity noise.
		return cmat.Identity(m), nil
	}
	cov.Scale(complex(float64(m)/tr, 0))
	if loading > 0 {
		cov.AddScaledIdentity(complex(loading, 0))
	}
	return cov, nil
}

// Apply beamforms the M-channel analytic signal with the weight vector:
// y(t) = wᴴ·x(t). All channels must share a length.
func Apply(x [][]complex128, w []complex128) ([]complex128, error) {
	m := len(x)
	if m == 0 || m != len(w) {
		return nil, fmt.Errorf("beamform: %d channels vs %d weights", m, len(w))
	}
	n := len(x[0])
	for c := 1; c < m; c++ {
		if len(x[c]) != n {
			return nil, fmt.Errorf("beamform: ragged channels (%d vs %d)", len(x[c]), n)
		}
	}
	wc := make([]complex128, m)
	for i, v := range w {
		wc[i] = cmplx.Conj(v)
	}
	out := make([]complex128, n)
	for t := 0; t < n; t++ {
		var s complex128
		for c := 0; c < m; c++ {
			s += wc[c] * x[c][t]
		}
		out[t] = s
	}
	return out, nil
}

// RealPart extracts the real component of a complex signal, the
// time-domain beamformer output used for matched filtering.
func RealPart(x []complex128) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = real(v)
	}
	return out
}

// Beamformer bundles an array geometry with a noise covariance and center
// frequency so callers can steer repeatedly without re-deriving state. The
// covariance is Cholesky-factored once at construction; every steering
// direction then costs two triangular solves (O(M²)) instead of a fresh
// inversion, and the imaging plan issues those solves concurrently against
// the shared immutable factor.
type Beamformer struct {
	arr      *array.Array
	noiseCov *cmat.Matrix
	chol     *cmat.Cholesky
	freqHz   float64
	// steering pools *[]complex128 of length M for WeightsFor scratch.
	steering sync.Pool
}

// New constructs a Beamformer. noiseCov may be nil, in which case spatially
// white noise (identity covariance, MVDR degrades to delay-and-sum) is
// assumed.
func New(arr *array.Array, noiseCov *cmat.Matrix, freqHz float64) (*Beamformer, error) {
	if arr == nil {
		return nil, fmt.Errorf("beamform: nil array")
	}
	if freqHz <= 0 {
		return nil, fmt.Errorf("beamform: center frequency %g <= 0", freqHz)
	}
	if noiseCov == nil {
		noiseCov = cmat.Identity(arr.Len())
	}
	if noiseCov.Rows != arr.Len() || noiseCov.Cols != arr.Len() {
		return nil, fmt.Errorf("beamform: covariance %dx%d for %d mics", noiseCov.Rows, noiseCov.Cols, arr.Len())
	}
	chol, err := cmat.Factor(noiseCov)
	if err != nil {
		return nil, fmt.Errorf("beamform: factor noise covariance: %w", err)
	}
	b := &Beamformer{arr: arr, noiseCov: noiseCov, chol: chol, freqHz: freqHz}
	m := arr.Len()
	b.steering.New = func() any {
		buf := make([]complex128, m)
		return &buf
	}
	return b, nil
}

// Array returns the underlying geometry.
func (b *Beamformer) Array() *array.Array { return b.arr }

// FreqHz returns the narrowband design frequency.
func (b *Beamformer) FreqHz() float64 { return b.freqHz }

// WeightsFor returns the MVDR weights steered at direction d via two
// triangular solves against the cached Cholesky factor. Only the returned
// weight vector is allocated; the steering vector comes from a pool.
func (b *Beamformer) WeightsFor(d array.Direction) ([]complex128, error) {
	psp := b.steering.Get().(*[]complex128)
	ps := *psp
	b.arr.SteeringVectorInto(ps, d, b.freqHz)
	w := make([]complex128, len(ps))
	if err := b.chol.SolveVecTo(w, ps); err != nil {
		b.steering.Put(psp)
		return nil, err
	}
	den := cmat.Dot(ps, w)
	b.steering.Put(psp)
	if cmplx.Abs(den) < 1e-30 {
		return nil, fmt.Errorf("beamform: degenerate MVDR denominator at θ=%.3f φ=%.3f", d.Azimuth, d.Elevation)
	}
	for i, v := range w {
		w[i] = v / den
	}
	return w, nil
}

// Steer beamforms the analytic channels toward direction d with MVDR
// weights.
func (b *Beamformer) Steer(x [][]complex128, d array.Direction) ([]complex128, error) {
	w, err := b.WeightsFor(d)
	if err != nil {
		return nil, err
	}
	return Apply(x, w)
}

// Beampattern evaluates the array response |wᴴ·p_s(d)| of the given weights
// across directions, e.g. to verify the distortionless constraint and
// sidelobe suppression.
func (b *Beamformer) Beampattern(w []complex128, dirs []array.Direction) []float64 {
	out := make([]float64, len(dirs))
	for i, d := range dirs {
		ps := b.arr.SteeringVector(d, b.freqHz)
		out[i] = cmplx.Abs(cmat.Dot(w, ps))
	}
	return out
}

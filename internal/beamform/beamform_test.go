package beamform

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"echoimage/internal/array"
	"echoimage/internal/cmat"
)

// synthPlaneWave builds M-channel analytic snapshots of a narrowband plane
// wave from direction d plus white noise.
func synthPlaneWave(arr *array.Array, d array.Direction, freqHz, fs float64, n int, noise float64, rng *rand.Rand) [][]complex128 {
	sv := arr.SteeringVector(d, freqHz)
	out := make([][]complex128, arr.Len())
	for m := range out {
		out[m] = make([]complex128, n)
	}
	for t := 0; t < n; t++ {
		carrier := cmplx.Rect(1, 2*math.Pi*freqHz*float64(t)/fs)
		for m := range out {
			v := carrier * sv[m]
			v += complex(rng.NormFloat64()*noise, rng.NormFloat64()*noise)
			out[m][t] = v
		}
	}
	return out
}

// TestMVDRDistortionless checks wᴴ·p_s = 1, the defining MVDR constraint,
// on the weights ranging and imaging steer with, under both white and
// estimated (non-identity) noise.
func TestMVDRDistortionless(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	arr := array.ReSpeaker()
	const freq = 2500.0
	jam := synthPlaneWave(arr, array.Direction{Azimuth: -1, Elevation: 1.2}, freq, 48000, 1024, 0.1, rng)
	est, err := EstimateCovariance(jam, 0, 1024, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	d := array.Direction{Azimuth: math.Pi / 2, Elevation: math.Pi / 3}
	sv := arr.SteeringVector(d, freq)
	for _, cov := range []*cmat.Matrix{nil, est} {
		bf, err := New(arr, cov, freq)
		if err != nil {
			t.Fatal(err)
		}
		w, err := bf.WeightsFor(d)
		if err != nil {
			t.Fatal(err)
		}
		if g := cmat.Dot(w, sv); cmplx.Abs(g-1) > 1e-9 {
			t.Errorf("identity=%v: distortionless response %v, want 1", cov == nil, g)
		}
	}
}

func TestMVDRRecoversLookDirectionSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	arr := array.ReSpeaker()
	d := array.Direction{Azimuth: math.Pi / 2, Elevation: math.Pi / 2}
	const freq, fs = 2500.0, 48000.0
	x := synthPlaneWave(arr, d, freq, fs, 512, 0.05, rng)

	bf, err := New(arr, nil, freq)
	if err != nil {
		t.Fatal(err)
	}
	y, err := bf.Steer(x, d)
	if err != nil {
		t.Fatal(err)
	}
	// The beamformed output magnitude should be ≈ the unit carrier.
	var mean float64
	for _, v := range y {
		mean += cmplx.Abs(v)
	}
	mean /= float64(len(y))
	if math.Abs(mean-1) > 0.1 {
		t.Errorf("beamformed magnitude %g, want ≈ 1", mean)
	}
}

func TestMVDRNullsInterferer(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	arr := array.ReSpeaker()
	look := array.Direction{Azimuth: math.Pi / 2, Elevation: math.Pi / 2}
	jam := array.Direction{Azimuth: -math.Pi / 3, Elevation: math.Pi / 2}
	const freq, fs = 2500.0, 48000.0

	// Noise covariance from interferer-only snapshots.
	noiseChans := synthPlaneWave(arr, jam, freq, fs, 2048, 0.02, rng)
	cov, err := EstimateCovariance(noiseChans, 0, 2048, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	bf, err := New(arr, cov, freq)
	if err != nil {
		t.Fatal(err)
	}
	w, err := bf.WeightsFor(look)
	if err != nil {
		t.Fatal(err)
	}
	pattern := bf.Beampattern(w, []array.Direction{look, jam})
	if math.Abs(pattern[0]-1) > 1e-6 {
		t.Errorf("look-direction gain %g, want 1", pattern[0])
	}
	if pattern[1] > 0.3*pattern[0] {
		t.Errorf("interferer gain %g not suppressed vs look %g", pattern[1], pattern[0])
	}
}

func TestEstimateCovarianceProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	arr := array.ReSpeaker()
	x := synthPlaneWave(arr, array.Direction{Azimuth: 1, Elevation: 1}, 2500, 48000, 256, 0.5, rng)
	cov, err := EstimateCovariance(x, 0, 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !cov.Hermitian(1e-9) {
		t.Error("covariance not Hermitian")
	}
	// Normalized: trace == M.
	if tr := real(cov.Trace()); math.Abs(tr-float64(arr.Len())) > 1e-9 {
		t.Errorf("trace %g, want %d", tr, arr.Len())
	}
}

func TestEstimateCovarianceDegenerate(t *testing.T) {
	m := 4
	silent := make([][]complex128, m)
	for i := range silent {
		silent[i] = make([]complex128, 64)
	}
	cov, err := EstimateCovariance(silent, 0, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d := cmat.MaxAbsDiff(cov, cmat.Identity(m)); d > 1e-12 {
		t.Errorf("silent covariance differs from identity by %g", d)
	}
	if _, err := EstimateCovariance(silent, 10, 10, 0); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := EstimateCovariance(nil, 0, 1, 0); err == nil {
		t.Error("no channels accepted")
	}
}

// TestDelayAndSumWeights checks that MVDR under spatially white noise (a
// nil covariance) is the delay-and-sum beamformer w = p_s / M.
func TestDelayAndSumWeights(t *testing.T) {
	arr := array.ReSpeaker()
	d := array.Direction{Azimuth: 0.5, Elevation: 1.0}
	sv := arr.SteeringVector(d, 2500)
	bf, err := New(arr, nil, 2500)
	if err != nil {
		t.Fatal(err)
	}
	w, err := bf.WeightsFor(d)
	if err != nil {
		t.Fatal(err)
	}
	m := complex(float64(arr.Len()), 0)
	for i := range w {
		if diff := cmplx.Abs(w[i] - sv[i]/m); diff > 1e-12 {
			t.Errorf("w[%d] = %v, want p_s/M = %v", i, w[i], sv[i]/m)
		}
	}
}

func TestApplyValidation(t *testing.T) {
	x := [][]complex128{{1, 2}, {3, 4}}
	if _, err := Apply(x, []complex128{1}); err == nil {
		t.Error("weight/channel mismatch accepted")
	}
	ragged := [][]complex128{{1, 2}, {3}}
	if _, err := Apply(ragged, []complex128{1, 1}); err == nil {
		t.Error("ragged channels accepted")
	}
}

func TestRealPart(t *testing.T) {
	x := []complex128{3 + 4i, -1}
	if r := RealPart(x); r[0] != 3 || r[1] != -1 {
		t.Errorf("RealPart = %v", r)
	}
}

func TestNewValidation(t *testing.T) {
	arr := array.ReSpeaker()
	if _, err := New(nil, nil, 2500); err == nil {
		t.Error("nil array accepted")
	}
	if _, err := New(arr, nil, 0); err == nil {
		t.Error("zero frequency accepted")
	}
	if _, err := New(arr, cmat.Identity(3), 2500); err == nil {
		t.Error("wrong covariance size accepted")
	}
}

package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAnalyticSignalRealPart(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{16, 100, 255, 1024} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		a := AnalyticSignal(x)
		for i := range x {
			if math.Abs(real(a[i])-x[i]) > 1e-9 {
				t.Fatalf("n=%d: real part differs at %d: %g vs %g", n, i, real(a[i]), x[i])
			}
		}
	}
}

func TestEnvelopeOfTone(t *testing.T) {
	// The envelope of a pure tone is its (constant) amplitude.
	const fs = 48000.0
	n := 4800
	x := make([]float64, n)
	for i := range x {
		x[i] = 0.7 * math.Sin(2*math.Pi*2500*float64(i)/fs)
	}
	env := Envelope(x)
	for i := 200; i < n-200; i++ { // skip edge effects
		if math.Abs(env[i]-0.7) > 0.02 {
			t.Fatalf("envelope at %d = %g, want 0.7", i, env[i])
		}
	}
}

func TestEnvelopeNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(200)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 10
		}
		for _, v := range Envelope(x) {
			if v < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMatchedFilterLocatesEcho(t *testing.T) {
	const fs = 48000.0
	// Template: short chirp-like burst.
	tmpl := make([]float64, 96)
	for i := range tmpl {
		ts := float64(i) / fs
		tmpl[i] = math.Sin(2 * math.Pi * (2000*ts + 250000*ts*ts))
	}
	n := 4800
	r := make([]float64, n)
	const delay = 1234
	for i, v := range tmpl {
		r[delay+i] += 0.5 * v
	}
	rng := rand.New(rand.NewSource(7))
	for i := range r {
		r[i] += rng.NormFloat64() * 0.01
	}
	c := MatchedFilter(r, tmpl)
	if len(c) != n {
		t.Fatalf("output length %d != %d", len(c), n)
	}
	peak := ArgMax(Envelope(c))
	if d := peak - delay; d < -3 || d > 3 {
		t.Errorf("matched filter peak at %d, want %d ± 3", peak, delay)
	}
}

func TestCrossCorrelateMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	r := make([]float64, 37)
	s := make([]float64, 11)
	for i := range r {
		r[i] = rng.NormFloat64()
	}
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	got := CrossCorrelate(r, s)
	if len(got) != len(r)+len(s)-1 {
		t.Fatalf("length %d, want %d", len(got), len(r)+len(s)-1)
	}
	for lag := -(len(s) - 1); lag < len(r); lag++ {
		var want float64
		for k := range s {
			if idx := k + lag; idx >= 0 && idx < len(r) {
				want += r[idx] * s[k]
			}
		}
		if math.Abs(got[lag+len(s)-1]-want) > 1e-9 {
			t.Fatalf("lag %d: got %g, want %g", lag, got[lag+len(s)-1], want)
		}
	}
}

func TestFindPeaks(t *testing.T) {
	x := []float64{0, 1, 0, 0, 5, 0, 0, 0, 3, 0}
	peaks := FindPeaks(x, 2, 0.5)
	if len(peaks) != 3 {
		t.Fatalf("found %d peaks, want 3: %v", len(peaks), peaks)
	}
	if peaks[0].Index != 1 || peaks[1].Index != 4 || peaks[2].Index != 8 {
		t.Errorf("peak indices %v, want [1 4 8]", peaks)
	}
	// A higher threshold drops the smallest peaks.
	peaks = FindPeaks(x, 2, 3.5)
	if len(peaks) != 1 || peaks[0].Index != 4 {
		t.Errorf("thresholded peaks %v, want just index 4", peaks)
	}
	// minDist suppresses nearby smaller maxima.
	y := []float64{0, 4, 0, 3, 0, 0, 0, 0, 0, 0}
	peaks = FindPeaks(y, 3, 0.5)
	if len(peaks) != 1 || peaks[0].Index != 1 {
		t.Errorf("minDist peaks %v, want just index 1", peaks)
	}
}

func TestFindPeaksEmptyAndFlat(t *testing.T) {
	if p := FindPeaks(nil, 1, 0); p != nil {
		t.Errorf("FindPeaks(nil) = %v", p)
	}
	flat := []float64{1, 1, 1, 1}
	if p := FindPeaks(flat, 1, 0); len(p) != 1 || p[0].Index != 0 {
		t.Errorf("plateau peaks %v, want first sample only", p)
	}
}

func TestArgMax(t *testing.T) {
	if ArgMax(nil) != -1 {
		t.Error("ArgMax(nil) != -1")
	}
	if ArgMax([]float64{1, 3, 2}) != 1 {
		t.Error("ArgMax([1 3 2]) != 1")
	}
}

func TestMovingAverage(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	got := MovingAverage(x, 3)
	want := []float64{1.5, 2, 3, 4, 4.5}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("index %d: got %g, want %g", i, got[i], want[i])
		}
	}
	// Window 1 copies.
	got = MovingAverage(x, 1)
	for i := range x {
		if got[i] != x[i] {
			t.Errorf("window 1 changed data at %d", i)
		}
	}
	if MovingAverage(nil, 3) != nil {
		t.Error("MovingAverage(nil) != nil")
	}
}

func TestWindows(t *testing.T) {
	w := Hann(64)
	if len(w) != 64 {
		t.Errorf("length %d", len(w))
	}
	// Symmetric.
	for i := 0; i < 32; i++ {
		if math.Abs(w[i]-w[63-i]) > 1e-12 {
			t.Errorf("asymmetric at %d", i)
		}
	}
	// Peak near the middle, bounded by ~1.
	for _, v := range w {
		if v < -1e-12 || v > 1.0001 {
			t.Errorf("value %g out of range", v)
		}
	}
	if w := Hann(1); len(w) != 1 || w[0] != 1 {
		t.Errorf("Hann(1) = %v", w)
	}
	if w := Hann(0); w != nil {
		t.Errorf("Hann(0) = %v", w)
	}
}

func TestEnergyAndRMS(t *testing.T) {
	x := []float64{3, 4}
	if Energy(x) != 25 {
		t.Errorf("Energy = %g, want 25", Energy(x))
	}
	if math.Abs(RMS(x)-math.Sqrt(12.5)) > 1e-12 {
		t.Errorf("RMS = %g", RMS(x))
	}
	if RMS(nil) != 0 {
		t.Error("RMS(nil) != 0")
	}
}

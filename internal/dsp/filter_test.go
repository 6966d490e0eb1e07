package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestButterworthBandpassResponse(t *testing.T) {
	const fs = 48000.0
	f, err := ButterworthBandpass(4, 2000, 3000, fs)
	if err != nil {
		t.Fatalf("design: %v", err)
	}
	if !f.Stable() {
		t.Fatal("designed filter unstable")
	}
	gain := func(hz float64) float64 {
		return cmplx.Abs(f.Response(2 * math.Pi * hz / fs))
	}
	// Unity (±1 dB) at band center.
	if g := gain(math.Sqrt(2000 * 3000)); math.Abs(g-1) > 0.12 {
		t.Errorf("center gain %.4f, want ≈ 1", g)
	}
	// Passband reasonably flat.
	for _, hz := range []float64{2200, 2500, 2800} {
		if g := gain(hz); g < 0.5 {
			t.Errorf("passband gain at %g Hz = %.4f, want > 0.5", hz, g)
		}
	}
	// Strong rejection out of band.
	for _, hz := range []float64{500, 1000, 6000, 10000} {
		if g := gain(hz); g > 0.05 {
			t.Errorf("stopband gain at %g Hz = %.4f, want < 0.05", hz, g)
		}
	}
	// Monotone-ish attenuation at the far edges.
	if gain(100) > gain(1500) {
		t.Error("attenuation not increasing toward DC")
	}
}

func TestButterworthBandpassFiltersSignal(t *testing.T) {
	const fs = 48000.0
	f, err := ButterworthBandpass(4, 2000, 3000, fs)
	if err != nil {
		t.Fatalf("design: %v", err)
	}
	n := 4800
	inBand := make([]float64, n)
	outBand := make([]float64, n)
	for i := 0; i < n; i++ {
		ts := float64(i) / fs
		inBand[i] = math.Sin(2 * math.Pi * 2500 * ts)
		outBand[i] = math.Sin(2 * math.Pi * 800 * ts)
	}
	// Skip the transient when measuring.
	inE := Energy(f.Filter(inBand)[1000:])
	outE := Energy(f.Filter(outBand)[1000:])
	if inE < 0.5*Energy(inBand[1000:]) {
		t.Errorf("in-band tone attenuated too much: %g", inE)
	}
	if outE > 0.001*Energy(outBand[1000:]) {
		t.Errorf("out-of-band tone not rejected: %g", outE)
	}
}

func TestButterworthValidation(t *testing.T) {
	cases := []struct {
		order      int
		lo, hi, fs float64
	}{
		{0, 2000, 3000, 48000},
		{4, 3000, 2000, 48000},
		{4, -1, 3000, 48000},
		{4, 2000, 24000, 48000},
		{4, 2000, 30000, 48000},
	}
	for _, c := range cases {
		if _, err := ButterworthBandpass(c.order, c.lo, c.hi, c.fs); err == nil {
			t.Errorf("design(%d, %g, %g, %g) accepted", c.order, c.lo, c.hi, c.fs)
		}
	}
}

func TestFiltFiltZeroPhase(t *testing.T) {
	const fs = 48000.0
	f, err := ButterworthBandpass(3, 2000, 3000, fs)
	if err != nil {
		t.Fatalf("design: %v", err)
	}
	// A burst in the middle must stay centered after zero-phase filtering.
	n := 4096
	x := make([]float64, n)
	center := n / 2
	for i := -200; i <= 200; i++ {
		ts := float64(i) / fs
		w := 0.5 * (1 + math.Cos(math.Pi*float64(i)/200))
		x[center+i] = w * math.Sin(2*math.Pi*2500*ts)
	}
	y := f.FiltFilt(nil, x)
	if len(y) != n {
		t.Fatalf("FiltFilt length %d, want %d", len(y), n)
	}
	env := Envelope(y)
	peak := ArgMax(env)
	if d := peak - center; d < -16 || d > 16 {
		t.Errorf("zero-phase peak moved by %d samples", d)
	}
}

// TestFiltFiltReusesDst checks that FiltFilt filters in dst's array when
// it has room, allocating nothing, and that the output bits do not depend
// on whether dst was fresh, reused after a longer or a shorter signal, or
// holding stale samples.
func TestFiltFiltReusesDst(t *testing.T) {
	f, err := ButterworthBandpass(4, 2000, 3000, 48000)
	if err != nil {
		t.Fatalf("design: %v", err)
	}
	rng := rand.New(rand.NewSource(9))
	long, short := make([]float64, 3000), make([]float64, 700)
	for _, x := range [][]float64{long, short} {
		for i := range x {
			x[i] = rng.NormFloat64()
		}
	}
	wantLong, wantShort := f.FiltFilt(nil, long), f.FiltFilt(nil, short)
	dst := f.FiltFilt(nil, long)
	for _, c := range []struct {
		x, want []float64
	}{{short, wantShort}, {long, wantLong}, {long, wantLong}, {short, wantShort}} {
		prev := &dst[:1][0]
		dst = f.FiltFilt(dst, c.x)
		if &dst[0] != prev {
			t.Fatalf("FiltFilt of %d samples reallocated a %d-capacity dst", len(c.x), cap(dst))
		}
		for i := range c.want {
			if math.Float64bits(dst[i]) != math.Float64bits(c.want[i]) {
				t.Fatalf("%d samples into a reused dst: sample %d is %v, want %v", len(c.x), i, dst[i], c.want[i])
			}
		}
	}
	if a := testing.AllocsPerRun(10, func() { dst = f.FiltFilt(dst, long) }); a != 0 {
		t.Errorf("FiltFilt into a reused dst allocates %v times", a)
	}
}

func TestFiltFiltEmpty(t *testing.T) {
	f, err := ButterworthBandpass(2, 2000, 3000, 48000)
	if err != nil {
		t.Fatalf("design: %v", err)
	}
	if got := f.FiltFilt(nil, nil); got != nil {
		t.Errorf("FiltFilt(nil) = %v, want nil", got)
	}
}

func TestBiquadStable(t *testing.T) {
	stable := Biquad{B0: 1, A1: -1.2, A2: 0.5}
	if !stable.Stable() {
		t.Error("stable biquad reported unstable")
	}
	unstable := Biquad{B0: 1, A1: 0, A2: 1.5}
	if unstable.Stable() {
		t.Error("unstable biquad reported stable")
	}
}

func TestBiquadImpulseResponseDecays(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f, err := ButterworthBandpass(4, 2000, 3000, 48000)
	if err != nil {
		t.Fatalf("design: %v", err)
	}
	x := make([]float64, 48000)
	x[0] = 1
	_ = rng
	y := f.Filter(x)
	tail := Energy(y[40000:])
	head := Energy(y[:8000])
	if tail > 1e-12*head {
		t.Errorf("impulse response does not decay: head %g tail %g", head, tail)
	}
}

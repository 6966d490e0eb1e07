package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"echoimage/internal/aimage"
	"echoimage/internal/array"
	"echoimage/internal/chirp"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.BandLowHz = 4000 },
		func(c *Config) { c.BandHighHz = 30000 },
		func(c *Config) { c.FilterOrder = 0 },
		func(c *Config) { c.GridRows = 1 },
		func(c *Config) { c.GridSpacingM = 0 },
		func(c *Config) { c.EchoWindowSec = 0 },
		func(c *Config) { c.SegmentGuardSec = 0 },
		func(c *Config) { c.NoiseTailFrac = 1.5 },
		func(c *Config) { c.RangingElevation = -1 },
		func(c *Config) { c.Chirp.Duration = 0 },
	}
	for i, mutate := range mutations {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestCaptureValidate(t *testing.T) {
	good := &Capture{
		Beeps:      [][][]float64{{{1, 2}, {3, 4}}},
		SampleRate: 48000,
	}
	if _, _, err := good.Validate(); err != nil {
		t.Fatalf("valid capture rejected: %v", err)
	}
	cases := []*Capture{
		{SampleRate: 48000},
		{Beeps: [][][]float64{{{1}}}, SampleRate: 0},
		{Beeps: [][][]float64{{}}, SampleRate: 48000},
		{Beeps: [][][]float64{{{}}}, SampleRate: 48000},
		{Beeps: [][][]float64{{{1}, {2}}, {{1}}}, SampleRate: 48000},
		{Beeps: [][][]float64{{{1}, {2, 3}}}, SampleRate: 48000},
		{Beeps: [][][]float64{{{1}, {2}}}, SampleRate: 48000, Reference: [][]float64{{1}}},
		{Beeps: [][][]float64{{{1}, {2}}}, SampleRate: 48000, Reference: [][]float64{{1}, {}}},
	}
	for i, c := range cases {
		if _, _, err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestAugmentInverseSquare(t *testing.T) {
	ai := &AcousticImage{
		Image:        aimage.New(4, 4),
		PlaneDistM:   0.7,
		GridSpacingM: 0.05,
	}
	for i := range ai.Pix {
		ai.Pix[i] = float64(i + 1)
	}
	out, err := Augment(ai, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	if out.PlaneDistM != 1.1 {
		t.Errorf("plane %g", out.PlaneDistM)
	}
	// Spot-check Eq. 15 at one grid.
	g := ai.GridCenter(1, 2)
	dk2 := g.X*g.X + 0.7*0.7 + g.Z*g.Z
	dk2New := g.X*g.X + 1.1*1.1 + g.Z*g.Z
	want := ai.At(1, 2) * dk2 / dk2New
	if math.Abs(out.At(1, 2)-want) > 1e-12 {
		t.Errorf("pixel %g, want %g", out.At(1, 2), want)
	}
	// All pixels shrink when moving the plane farther.
	for i := range out.Pix {
		if out.Pix[i] >= ai.Pix[i] {
			t.Errorf("pixel %d did not attenuate: %g >= %g", i, out.Pix[i], ai.Pix[i])
		}
	}
}

// TestAugmentRoundTrip property-checks that augmenting out and back is the
// identity.
func TestAugmentRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ai := &AcousticImage{
			Image:        aimage.New(6, 6),
			PlaneDistM:   0.5 + rng.Float64(),
			GridSpacingM: 0.03 + rng.Float64()*0.05,
		}
		for i := range ai.Pix {
			ai.Pix[i] = rng.Float64() * 10
		}
		d2 := 0.5 + rng.Float64()*1.5
		out, err := Augment(ai, d2)
		if err != nil {
			return false
		}
		back, err := Augment(out, ai.PlaneDistM)
		if err != nil {
			return false
		}
		for i := range ai.Pix {
			if math.Abs(back.Pix[i]-ai.Pix[i]) > 1e-9*(1+ai.Pix[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAugmentValidation(t *testing.T) {
	if _, err := Augment(nil, 1); err == nil {
		t.Error("nil image accepted")
	}
	ai := &AcousticImage{Image: aimage.New(2, 2), PlaneDistM: 0.7, GridSpacingM: 0.05}
	if _, err := Augment(ai, 0); err == nil {
		t.Error("zero distance accepted")
	}
	sweep, err := AugmentSweep(ai, []float64{0.7, 1.0, 1.3}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != 2 {
		t.Errorf("sweep produced %d images, want 2 (own distance skipped)", len(sweep))
	}
}

func TestGridCenterGeometry(t *testing.T) {
	ai := &AcousticImage{
		Image:        aimage.New(5, 5),
		PlaneDistM:   0.8,
		GridSpacingM: 0.1,
	}
	center := ai.GridCenter(2, 2)
	if center.X != 0 || center.Y != 0.8 || center.Z != 0 {
		t.Errorf("center grid at %v", center)
	}
	topLeft := ai.GridCenter(0, 0)
	if math.Abs(topLeft.X+0.2) > 1e-12 || math.Abs(topLeft.Z-0.2) > 1e-12 {
		t.Errorf("top-left grid at %v", topLeft)
	}
}

func TestFitWhitenerSuppressesNuisance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Two classes separated along dim 0, with a large shared nuisance
	// direction along dim 1.
	var xs [][]float64
	var labels []int
	for i := 0; i < 40; i++ {
		nuisance := rng.NormFloat64() * 5
		xs = append(xs, []float64{1 + rng.NormFloat64()*0.1, nuisance, rng.NormFloat64() * 0.1})
		labels = append(labels, 1)
		nuisance = rng.NormFloat64() * 5
		xs = append(xs, []float64{-1 + rng.NormFloat64()*0.1, nuisance, rng.NormFloat64() * 0.1})
		labels = append(labels, 2)
	}
	w, err := FitWhitener(xs, labels, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w.NumDirections() != 1 {
		t.Fatalf("kept %d directions, want 1", w.NumDirections())
	}
	// After whitening, the nuisance spread must shrink relative to class
	// separation.
	a := w.Apply([]float64{1, 5, 0})
	b := w.Apply([]float64{1, -5, 0})
	var d float64
	for i := range a {
		d += (a[i] - b[i]) * (a[i] - b[i])
	}
	// Unwhitened distance would be 10 (before L2 norm); whitened must be
	// much smaller relative to the class axis.
	if math.Sqrt(d) > 1.0 {
		t.Errorf("nuisance distance after whitening %g", math.Sqrt(d))
	}
}

func TestFitWhitenerDegenerate(t *testing.T) {
	// Single-sample classes cannot define residuals: identity whitener.
	w, err := FitWhitener([][]float64{{1, 2}, {3, 4}}, []int{1, 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if w.NumDirections() != 0 {
		t.Errorf("degenerate whitener kept %d directions", w.NumDirections())
	}
	if _, err := FitWhitener(nil, nil, 4); err == nil {
		t.Error("empty input accepted")
	}
}

func TestTrainAuthenticatorValidation(t *testing.T) {
	if _, err := TrainAuthenticator(context.Background(), DefaultAuthConfig(), nil); err == nil {
		t.Error("empty enrollment accepted")
	}
	bad := map[int][]*AcousticImage{-1: {}}
	if _, err := TrainAuthenticator(context.Background(), DefaultAuthConfig(), bad); err == nil {
		t.Error("negative user ID accepted")
	}
	empty := map[int][]*AcousticImage{1: {}}
	if _, err := TrainAuthenticator(context.Background(), DefaultAuthConfig(), empty); err == nil {
		t.Error("user with no images accepted")
	}
	nilImg := map[int][]*AcousticImage{1: {nil}}
	if _, err := TrainAuthenticator(context.Background(), DefaultAuthConfig(), nilImg); err == nil {
		t.Error("nil image accepted")
	}
}

func TestSystemRejectsGarbageCapture(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GridRows, cfg.GridCols = 8, 8
	cfg.GridSpacingM = 0.2
	sys, err := NewSystem(cfg, array.ReSpeaker())
	if err != nil {
		t.Fatal(err)
	}
	// All-zero capture: no peaks anywhere.
	silent := &Capture{
		Beeps:      [][][]float64{make([][]float64, 6)},
		SampleRate: 48000,
	}
	for m := range silent.Beeps[0] {
		silent.Beeps[0][m] = make([]float64, 2400)
	}
	if _, err := sys.ProcessRecordedContext(context.Background(), silent, nil, nil); err == nil {
		t.Error("silent capture processed without error")
	}
}

func TestEdgeBiasPositive(t *testing.T) {
	cfg := DefaultConfig()
	if b := edgeBias(cfg, chirpFilterPlan(cfg.Chirp)); b <= 0 || b > cfg.Chirp.Duration {
		t.Errorf("edge bias %g outside (0, %g]", b, cfg.Chirp.Duration)
	}
}

func TestProcessAtDistanceValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GridRows, cfg.GridCols = 8, 8
	cfg.GridSpacingM = 0.2
	sys, err := NewSystem(cfg, array.ReSpeaker())
	if err != nil {
		t.Fatal(err)
	}
	cap := &Capture{Beeps: [][][]float64{{make([]float64, 100), make([]float64, 100), make([]float64, 100), make([]float64, 100), make([]float64, 100), make([]float64, 100)}}, SampleRate: 48000}
	if _, err := sys.ProcessAtDistance(context.Background(), cap, -1, 0, nil); err == nil {
		t.Error("negative plane distance accepted")
	}
}

func TestChirpTrainConsistency(t *testing.T) {
	// The pipeline's default chirp matches the paper's §V-A parameters.
	c := DefaultConfig().Chirp
	if c.StartHz != 2000 || c.EndHz != 3000 || c.Duration != 0.002 {
		t.Errorf("default chirp %+v", c)
	}
	tr := chirp.DefaultTrain(3)
	if tr.IntervalSec != 0.5 {
		t.Errorf("default interval %g, want 0.5", tr.IntervalSec)
	}
}

package dataset

import (
	"context"
	"testing"

	"echoimage/internal/array"
	"echoimage/internal/body"
	"echoimage/internal/core"
	"echoimage/internal/sim"
)

func validSpec() SessionSpec {
	return SessionSpec{
		Profile:   body.Roster()[0],
		Env:       sim.EnvLab,
		Noise:     sim.NoiseQuiet,
		DistanceM: 0.7,
		Session:   1,
		Beeps:     4,
		Seed:      1,
	}
}

func TestValidate(t *testing.T) {
	if err := validSpec().Validate(); err != nil {
		t.Fatal(err)
	}
	s := validSpec()
	s.Profile = body.Profile{}
	if err := s.Validate(); err == nil {
		t.Error("zero profile accepted")
	}
	s = validSpec()
	s.DistanceM = 0
	if err := s.Validate(); err == nil {
		t.Error("zero distance accepted")
	}
	s = validSpec()
	s.Beeps = 0
	if err := s.Validate(); err == nil {
		t.Error("zero beeps accepted")
	}
}

func TestCollectShapes(t *testing.T) {
	cap, noiseOnly, err := Collect(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	mics, samples, err := cap.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if mics != 6 {
		t.Errorf("%d mics", mics)
	}
	if len(cap.Beeps) != 4 {
		t.Errorf("%d beeps", len(cap.Beeps))
	}
	if cap.Reference == nil || len(cap.Reference) != mics {
		t.Error("missing background reference")
	}
	if len(noiseOnly) != mics {
		t.Errorf("noise capture has %d channels", len(noiseOnly))
	}
	// The dedicated noise capture is longer than a beep window for a
	// well-conditioned covariance estimate.
	if len(noiseOnly[0]) <= samples {
		t.Errorf("noise capture %d samples, beep window %d", len(noiseOnly[0]), samples)
	}
}

func TestCollectPlacements(t *testing.T) {
	s := validSpec()
	s.Beeps = 7
	s.Placements = 3
	caps, _, err := CollectPlacements(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(caps) != 3 {
		t.Fatalf("%d placements", len(caps))
	}
	total := 0
	for _, c := range caps {
		total += len(c.Beeps)
	}
	if total != 7 {
		t.Errorf("%d total beeps, want 7", total)
	}
}

func TestCollectDeterministic(t *testing.T) {
	a, _, err := Collect(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Collect(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	if a.Beeps[0][0][100] != b.Beeps[0][0][100] {
		t.Error("collections with equal specs differ")
	}
	s := validSpec()
	s.Seed = 2
	c, _, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Beeps[0][0] {
		if a.Beeps[0][0][i] != c.Beeps[0][0][i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical noise")
	}
}

func TestCollectImagesRangingAndFixed(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.GridRows, cfg.GridCols = 16, 16
	cfg.GridSpacingM = 0.12
	sys, err := core.NewSystem(cfg, array.ReSpeaker())
	if err != nil {
		t.Fatal(err)
	}
	imgs, err := CollectImages(context.Background(), sys, validSpec(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(imgs) != 4 {
		t.Fatalf("%d images", len(imgs))
	}
	if imgs[0].PlaneDistM <= 0.3 || imgs[0].PlaneDistM > 1.2 {
		t.Errorf("ranged plane %g implausible for a 0.7 m user", imgs[0].PlaneDistM)
	}
	fixed, err := CollectImages(context.Background(), sys, validSpec(), false)
	if err != nil {
		t.Fatal(err)
	}
	if fixed[0].PlaneDistM != 0.7 {
		t.Errorf("fixed plane %g, want 0.7", fixed[0].PlaneDistM)
	}
}

func TestCollectImagesPlaneOffsets(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.GridRows, cfg.GridCols = 16, 16
	cfg.GridSpacingM = 0.12
	sys, err := core.NewSystem(cfg, array.ReSpeaker())
	if err != nil {
		t.Fatal(err)
	}
	s := validSpec()
	s.PlaneOffsets = []float64{-0.05, 0.05}
	imgs, err := CollectImages(context.Background(), sys, s, true)
	if err != nil {
		t.Fatal(err)
	}
	// 4 base + 2 offset copies per beep.
	if len(imgs) != 12 {
		t.Fatalf("%d images, want 12", len(imgs))
	}
}

package core_test

import (
	"context"
	"math"
	"testing"

	"echoimage/internal/aimage"
	"echoimage/internal/array"
	"echoimage/internal/chirp"
	"echoimage/internal/core"
	"echoimage/internal/dataset"
	"echoimage/internal/sim"

	"echoimage/internal/body"
)

func quickSpec(userID, session, beeps int, seed int64) dataset.SessionSpec {
	return dataset.SessionSpec{
		Profile:   body.Roster()[userID-1],
		Env:       sim.EnvLab,
		Noise:     sim.NoiseQuiet,
		DistanceM: 0.7,
		Session:   session,
		Beeps:     beeps,
		Seed:      seed,
	}
}

func smallSystem(t *testing.T) *core.System {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.GridRows, cfg.GridCols = 24, 24
	cfg.GridSpacingM = 0.08
	sys, err := core.NewSystem(cfg, array.ReSpeaker())
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestMultiBandImaging(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.GridRows, cfg.GridCols = 16, 16
	cfg.GridSpacingM = 0.12
	cfg.ImagingSubBands = 3
	sys, err := core.NewSystem(cfg, array.ReSpeaker())
	if err != nil {
		t.Fatal(err)
	}
	cap, noiseOnly, err := dataset.Collect(quickSpec(1, 1, 2, 5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.ProcessRecordedContext(context.Background(), cap, noiseOnly, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, img := range res.Images {
		if len(img.Bands) != 3 {
			t.Fatalf("image has %d sub-bands, want 3", len(img.Bands))
		}
		for b, band := range img.Bands {
			if band.Rows != 16 || band.Cols != 16 {
				t.Fatalf("band %d shape %dx%d", b, band.Rows, band.Cols)
			}
		}
		// Sub-bands must differ from each other (frequency diversity).
		c, err := aimage.Correlation(img.Bands[0], img.Bands[2])
		if err != nil {
			t.Fatal(err)
		}
		if c > 0.999 {
			t.Errorf("sub-bands 0 and 2 identical (corr %g)", c)
		}
	}
}

func TestAugmentCaptureMovesEcho(t *testing.T) {
	sys := smallSystem(t)
	cap, noiseOnly, err := dataset.Collect(quickSpec(1, 1, 3, 7))
	if err != nil {
		t.Fatal(err)
	}
	base, err := sys.ProcessRecordedContext(context.Background(), cap, noiseOnly, nil)
	if err != nil {
		t.Fatal(err)
	}
	from := base.Distance.UserM

	aug, err := core.AugmentCapture(cap, from, from+0.3)
	if err != nil {
		t.Fatal(err)
	}
	augRes, err := sys.ProcessRecordedContext(context.Background(), aug, noiseOnly, nil)
	if err != nil {
		t.Fatal(err)
	}
	moved := augRes.Distance.UserM - from
	if moved < 0.2 || moved > 0.4 {
		t.Errorf("augmented capture ranged %.3f m beyond base, want ≈ 0.3", moved)
	}
}

func TestAugmentCaptureValidation(t *testing.T) {
	if _, err := core.AugmentCapture(nil, 0.7, 1.0); err == nil {
		t.Error("nil capture accepted")
	}
	noRef := &core.Capture{Beeps: [][][]float64{{{1}}}, SampleRate: 48000}
	if _, err := core.AugmentCapture(noRef, 0.7, 1.0); err == nil {
		t.Error("capture without reference accepted")
	}
	withRef := &core.Capture{
		Beeps:      [][][]float64{{{1, 2, 3}}},
		SampleRate: 48000,
		Reference:  [][]float64{{0, 0, 0}},
	}
	if _, err := core.AugmentCapture(withRef, 0, 1.0); err == nil {
		t.Error("zero from-distance accepted")
	}
	if _, err := core.AugmentCapture(withRef, 0.7, -1); err == nil {
		t.Error("negative to-distance accepted")
	}
}

func TestAuthenticateMajority(t *testing.T) {
	sys := smallSystem(t)
	spec := quickSpec(1, 1, 10, 11)
	spec.Placements = 3
	imgs, err := dataset.CollectImages(context.Background(), sys, spec, true)
	if err != nil {
		t.Fatal(err)
	}
	auth, err := core.TrainAuthenticator(context.Background(), core.DefaultAuthConfig(), map[int][]*core.AcousticImage{1: imgs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := auth.AuthenticateMajorityRecorded(nil, nil); err == nil {
		t.Error("empty image set accepted")
	}
	// Majority over the enrollment data itself must accept as user 1.
	d, err := auth.AuthenticateMajorityRecorded(imgs[:5], nil)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Accepted || d.UserID != 1 {
		t.Errorf("self-majority decision %+v", d)
	}
}

func TestReplayPropLooksNothingLikeABody(t *testing.T) {
	// The loudspeaker prop's image must differ strongly from a person's.
	sys := smallSystem(t)
	cap, noiseOnly, err := dataset.Collect(quickSpec(1, 1, 1, 13))
	if err != nil {
		t.Fatal(err)
	}
	bodyRes, err := sys.ProcessRecordedContext(context.Background(), cap, noiseOnly, nil)
	if err != nil {
		t.Fatal(err)
	}

	spec, err := sim.EnvLab.Spec()
	if err != nil {
		t.Fatal(err)
	}
	noise, err := spec.NoiseSources(sim.NoiseQuiet, 0)
	if err != nil {
		t.Fatal(err)
	}
	scene := sim.NewScene(array.ReSpeaker())
	scene.Reflectors = spec.Clutter
	scene.Body = body.LoudspeakerProp(0.7, 0.3)
	scene.Noise = noise
	scene.Reverb = spec.Reverb
	train := testTrain(1)
	recs, err := scene.Capture(train, 17)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := scene.CaptureReference(train.Chirp, 18)
	if err != nil {
		t.Fatal(err)
	}
	no, err := scene.CaptureNoiseFor(19, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	propCap := &core.Capture{Beeps: recs, SampleRate: scene.Config.SampleRate, Reference: ref}
	propRes, err := sys.ProcessAtDistance(context.Background(), propCap, bodyRes.Images[0].PlaneDistM, bodyRes.Distance.EmissionSec, no)
	if err != nil {
		t.Fatal(err)
	}
	c, err := aimage.Correlation(bodyRes.Images[0].Image, propRes.Images[0].Image)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c) > 0.85 {
		t.Errorf("loudspeaker image correlates %.3f with a body image", c)
	}
}

// testTrain builds a default beep train for scene-level tests.
func testTrain(count int) chirp.Train {
	return chirp.Train{Chirp: chirp.Default(), IntervalSec: 0.5, Count: count}
}

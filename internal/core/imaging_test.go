package core

import (
	"context"
	"math/rand"
	"testing"

	"echoimage/internal/aimage"
	"echoimage/internal/array"
	"echoimage/internal/body"
	"echoimage/internal/chirp"
	"echoimage/internal/sim"
)

// testImagingConfig shrinks the imaging plane for CI speed: 36×36 grids of
// 5 cm cover the same 1.8 m × 1.8 m plane as the paper's 180×180 of 1 cm.
func testImagingConfig() Config {
	cfg := DefaultConfig()
	cfg.GridRows, cfg.GridCols = 36, 36
	cfg.GridSpacingM = 0.05
	return cfg
}

// captureUser renders a capture for one roster user at the given distance.
func captureUser(t *testing.T, profile body.Profile, distance float64, beeps int, seed int64) *Capture {
	t.Helper()
	spec, err := sim.EnvLab.Spec()
	if err != nil {
		t.Fatalf("environment spec: %v", err)
	}
	noise, err := spec.NoiseSources(sim.NoiseQuiet, 0)
	if err != nil {
		t.Fatalf("noise sources: %v", err)
	}
	stance := body.DefaultStance(distance)
	rng := rand.New(rand.NewSource(seed))
	reflectors := profile.Reflectors(body.DefaultReflectorConfig(), stance, rng)

	scene := sim.NewScene(array.ReSpeaker())
	scene.Reflectors = spec.Clutter
	scene.Body = reflectors
	scene.Motion = sim.DefaultMotion()
	scene.Noise = noise
	scene.Reverb = spec.Reverb
	train := chirp.Train{Chirp: chirp.Default(), IntervalSec: 0.5, Count: beeps}
	recs, err := scene.Capture(train, seed)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	return &Capture{Beeps: recs, SampleRate: scene.Config.SampleRate}
}

// TestImageDiscriminability reproduces the paper's Figure 8 feasibility
// study: images of one user are similar across beeps while images of two
// users differ. We require the same-user correlation to clearly exceed the
// cross-user correlation.
func TestImageDiscriminability(t *testing.T) {
	cfg := testImagingConfig()
	arr := array.ReSpeaker()

	profiles := body.Roster()
	userA, userB := profiles[0], profiles[7]

	capA := captureUser(t, userA, 0.7, 2, 101)
	capB := captureUser(t, userB, 0.7, 2, 202)

	est, err := NewDistanceEstimator(cfg, arr)
	if err != nil {
		t.Fatalf("NewDistanceEstimator: %v", err)
	}
	imager, err := NewImager(cfg, arr)
	if err != nil {
		t.Fatalf("NewImager: %v", err)
	}

	makeImages := func(cap *Capture) []*AcousticImage {
		t.Helper()
		d, err := est.Estimate(cap, nil)
		if err != nil {
			t.Fatalf("Estimate: %v", err)
		}
		imgs, err := imager.constructAll(context.Background(), cap, d.UserM, d.EmissionSec, nil, nil)
		if err != nil {
			t.Fatalf("constructAll: %v", err)
		}
		return imgs
	}

	imgsA := makeImages(capA)
	imgsB := makeImages(capB)

	same, err := aimage.Correlation(imgsA[0].Image, imgsA[1].Image)
	if err != nil {
		t.Fatalf("Correlation: %v", err)
	}
	cross, err := aimage.Correlation(imgsA[0].Image, imgsB[0].Image)
	if err != nil {
		t.Fatalf("Correlation: %v", err)
	}
	t.Logf("same-user corr=%.4f cross-user corr=%.4f", same, cross)
	if same <= cross {
		t.Errorf("same-user correlation %.4f not above cross-user %.4f", same, cross)
	}
	if same < 0.8 {
		t.Errorf("same-user correlation %.4f below 0.8: images unstable", same)
	}
}

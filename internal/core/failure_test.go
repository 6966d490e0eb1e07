package core_test

import (
	"context"
	"math/rand"
	"testing"

	"echoimage/internal/array"
	"echoimage/internal/body"
	"echoimage/internal/core"
	"echoimage/internal/dataset"
	"echoimage/internal/sim"
)

// TestClippedCaptureStillRanges injects ADC saturation: the strong direct
// path clips while the weak echoes survive, and ranging must still work
// because the echo window carries the information.
func TestClippedCaptureStillRanges(t *testing.T) {
	sys := smallSystem(t)

	spec, err := sim.EnvLab.Spec()
	if err != nil {
		t.Fatal(err)
	}
	noiseSources, err := spec.NoiseSources(sim.NoiseQuiet, 0)
	if err != nil {
		t.Fatal(err)
	}
	profile := body.Roster()[0]
	scene := sim.NewScene(array.ReSpeaker())
	scene.Reflectors = spec.Clutter
	scene.Body = profile.Reflectors(body.DefaultReflectorConfig(), body.DefaultStance(0.7), rand.New(rand.NewSource(1)))
	scene.Motion = sim.DefaultMotion()
	scene.Noise = noiseSources
	scene.Reverb = spec.Reverb
	// The direct path peaks around 14; clip at 4 (hard saturation).
	scene.Config.ClipLevel = 4

	train := testTrain(6)
	recs, err := scene.Capture(train, 3)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := scene.CaptureReference(train.Chirp, 4)
	if err != nil {
		t.Fatal(err)
	}
	noiseOnly, err := scene.CaptureNoiseFor(5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cap := &core.Capture{Beeps: recs, SampleRate: scene.Config.SampleRate, Reference: ref}
	res, err := sys.ProcessRecordedContext(context.Background(), cap, noiseOnly, nil)
	if err != nil {
		t.Fatalf("clipped capture failed outright: %v", err)
	}
	if res.Distance.UserM < 0.4 || res.Distance.UserM > 1.1 {
		t.Errorf("clipped-capture estimate %.3f m for a 0.7 m user", res.Distance.UserM)
	}
}

// TestWalkingUserBlursImages injects gross motion: a user walking through
// the beam produces images that disagree with each other far more than a
// standing user's, which a liveness check could exploit.
func TestWalkingUserBlursImages(t *testing.T) {
	imagesWithMotion := func(m *sim.MotionConfig) []*core.AcousticImage {
		t.Helper()
		sys := smallSystem(t)
		spec, err := sim.EnvLab.Spec()
		if err != nil {
			t.Fatal(err)
		}
		noiseSources, err := spec.NoiseSources(sim.NoiseQuiet, 0)
		if err != nil {
			t.Fatal(err)
		}
		profile := body.Roster()[2]
		scene := sim.NewScene(array.ReSpeaker())
		scene.Reflectors = spec.Clutter
		scene.Body = profile.Reflectors(body.DefaultReflectorConfig(), body.DefaultStance(0.7), rand.New(rand.NewSource(2)))
		scene.Motion = m
		scene.Noise = noiseSources
		scene.Reverb = spec.Reverb
		train := testTrain(6)
		recs, err := scene.Capture(train, 6)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := scene.CaptureReference(train.Chirp, 7)
		if err != nil {
			t.Fatal(err)
		}
		noiseOnly, err := scene.CaptureNoiseFor(8, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		cap := &core.Capture{Beeps: recs, SampleRate: scene.Config.SampleRate, Reference: ref}
		res, err := sys.ProcessRecordedContext(context.Background(), cap, noiseOnly, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Images
	}

	spread := func(imgs []*core.AcousticImage) float64 {
		var worst float64
		for i := 0; i < len(imgs); i++ {
			for j := i + 1; j < len(imgs); j++ {
				if dist := imageDistance(t, imgs[i], imgs[j]); dist > worst {
					worst = dist
				}
			}
		}
		return worst
	}

	standing := spread(imagesWithMotion(sim.DefaultMotion()))
	walking := spread(imagesWithMotion(&sim.MotionConfig{
		// Gross motion: ~10 cm of drift per beep.
		SwayStepM: 0.10,
		SwayMaxM:  0.60,
	}))
	t.Logf("max intra-capture image distance: standing %.4f, walking %.4f", standing, walking)
	if walking < 2*standing {
		t.Errorf("walking spread %.4f not clearly above standing %.4f", walking, standing)
	}
}

func imageDistance(t *testing.T, a, b *core.AcousticImage) float64 {
	t.Helper()
	na := a.Image.Clone().Normalize()
	nb := b.Image.Clone().Normalize()
	var s float64
	for i := range na.Pix {
		d := na.Pix[i] - nb.Pix[i]
		s += d * d
	}
	return s
}

// TestMissingNoiseCaptureFallsBack exercises the tail-based covariance
// path: processing without a dedicated noise recording must still work.
func TestMissingNoiseCaptureFallsBack(t *testing.T) {
	sys := smallSystem(t)
	cap, _, err := dataset.Collect(quickSpec(1, 1, 3, 21))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.ProcessRecordedContext(context.Background(), cap, nil, nil)
	if err != nil {
		t.Fatalf("processing without noise capture: %v", err)
	}
	if len(res.Images) != 3 {
		t.Errorf("%d images", len(res.Images))
	}
}

// TestWrongChannelCountRejected injects a capture whose reference has a
// different channel count.
func TestWrongChannelCountRejected(t *testing.T) {
	sys := smallSystem(t)
	cap, _, err := dataset.Collect(quickSpec(1, 1, 1, 22))
	if err != nil {
		t.Fatal(err)
	}
	cap.Reference = cap.Reference[:3]
	if _, err := sys.ProcessRecordedContext(context.Background(), cap, nil, nil); err == nil {
		t.Error("mismatched reference accepted")
	}
}

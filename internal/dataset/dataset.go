// Package dataset orchestrates the paper's data collection protocol
// (§VI-A): it places roster subjects into venues at chosen distances and
// sessions, renders their captures through the acoustic simulator, and
// produces the train/test splits the experiments consume.
package dataset

import (
	"context"
	"fmt"

	"echoimage/internal/array"
	"echoimage/internal/body"
	"echoimage/internal/chirp"
	"echoimage/internal/core"
	"echoimage/internal/sim"

	"math/rand"
)

// SessionSpec describes one subject's data-collection session.
type SessionSpec struct {
	// Profile is the synthetic subject.
	Profile body.Profile
	// Env is the venue.
	Env sim.Environment
	// Noise is the interference condition during this session.
	Noise sim.NoiseCondition
	// NoiseLevelDB is the played noise level (~50 dB in the paper);
	// ignored for NoiseQuiet.
	NoiseLevelDB float64
	// DistanceM is the nominal user-array distance.
	DistanceM float64
	// Session is the collection session number (the paper uses 1–3 spread
	// over ten days); it seeds the stance jitter.
	Session int
	// Beeps is the number of chirps L collected.
	Beeps int
	// Placements is how many times the subject steps away and stands back
	// during the session; each placement re-draws the stance. The paper's
	// Session 1 spans days 0–2, so enrollment data naturally covers
	// several placements. 0 means 1.
	Placements int
	// PlaneOffsets, when non-empty, re-images each placement's capture at
	// the ranging estimate plus each offset (multi-plane enrollment). The
	// acoustic image's ring structure shifts quickly with plane distance;
	// offset copies teach the classifier that manifold, making it robust
	// to the centimeter-scale ranging differences between sessions. Only
	// meaningful for enrollment with ranging enabled.
	PlaneOffsets []float64
	// Seed decorrelates noise realizations between otherwise identical
	// sessions.
	Seed int64
	// Reflector densities; zero values take the body defaults.
	Reflectors body.ReflectorConfig
}

// Validate checks the specification.
func (s SessionSpec) Validate() error {
	switch {
	case s.Profile.ID <= 0:
		return fmt.Errorf("dataset: profile ID %d invalid", s.Profile.ID)
	case s.DistanceM <= 0:
		return fmt.Errorf("dataset: distance %g <= 0", s.DistanceM)
	case s.Beeps < 1:
		return fmt.Errorf("dataset: %d beeps < 1", s.Beeps)
	}
	return nil
}

// Collect renders the session as one merged capture (all placements
// concatenated) plus a noise-only recording for covariance estimation.
func Collect(spec SessionSpec) (*core.Capture, [][]float64, error) {
	caps, noiseOnly, err := CollectPlacements(spec)
	if err != nil {
		return nil, nil, err
	}
	merged := &core.Capture{SampleRate: caps[0].SampleRate, Reference: caps[0].Reference}
	for _, c := range caps {
		merged.Beeps = append(merged.Beeps, c.Beeps...)
	}
	return merged, noiseOnly, nil
}

// CollectPlacements renders the session as one capture per placement. Each
// placement corresponds to one authentication attempt's worth of data with
// its own stance, the way a real system meets the user.
func CollectPlacements(spec SessionSpec) ([]*core.Capture, [][]float64, error) {
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	envSpec, err := spec.Env.Spec()
	if err != nil {
		return nil, nil, err
	}
	levelDB := spec.NoiseLevelDB
	if levelDB == 0 {
		levelDB = 50
	}
	noise, err := envSpec.NoiseSources(spec.Noise, levelDB)
	if err != nil {
		return nil, nil, err
	}

	refCfg := spec.Reflectors
	if refCfg.Levels == 0 && refCfg.PointsPerLevel == 0 {
		refCfg = body.DefaultReflectorConfig()
	}
	seed := spec.Seed + int64(spec.Profile.ID)*1_000_003 + int64(spec.Session)*7919 + int64(spec.Env)*104729 + int64(spec.Noise)*1299709

	placements := spec.Placements
	if placements < 1 {
		placements = 1
	}
	if placements > spec.Beeps {
		placements = spec.Beeps
	}
	var caps []*core.Capture
	var noiseOnly [][]float64
	for pl := 0; pl < placements; pl++ {
		beeps := spec.Beeps / placements
		if pl < spec.Beeps%placements {
			beeps++
		}
		stance := body.SessionStance(spec.DistanceM, spec.Profile.ID, spec.Session*131+pl)
		plSeed := seed + int64(pl)*15485863
		rng := rand.New(rand.NewSource(plSeed))
		reflectors := spec.Profile.Reflectors(refCfg, stance, rng)

		scene := sim.NewScene(array.ReSpeaker())
		scene.Reflectors = envSpec.Clutter
		scene.Body = reflectors
		scene.Motion = sim.DefaultMotion()
		scene.Noise = noise
		scene.Reverb = envSpec.Reverb

		train := chirp.Train{Chirp: chirp.Default(), IntervalSec: 0.5, Count: beeps}
		recs, err := scene.Capture(train, plSeed+1)
		if err != nil {
			return nil, nil, fmt.Errorf("dataset: capture placement %d: %w", pl, err)
		}
		// Background calibration: the empty-scene response recorded once
		// at installation (same venue, same array).
		reference, err := scene.CaptureReference(train.Chirp, seed+3)
		if err != nil {
			return nil, nil, fmt.Errorf("dataset: capture reference: %w", err)
		}
		caps = append(caps, &core.Capture{Beeps: recs, SampleRate: scene.Config.SampleRate, Reference: reference})
		if noiseOnly == nil {
			noiseOnly, err = scene.CaptureNoiseFor(plSeed+2, 0.5)
			if err != nil {
				return nil, nil, fmt.Errorf("dataset: capture noise: %w", err)
			}
		}
	}
	return caps, noiseOnly, nil
}

// CollectImages renders a session and runs it through the sensing front
// end, returning one acoustic image per beep. Each placement is processed
// as its own capture — one ranging estimate per placement, exactly as a
// deployed system would meet each authentication attempt. When ranging is
// disabled the imaging plane sits at the nominal distance.
func CollectImages(ctx context.Context, sys *core.System, spec SessionSpec, useRanging bool) ([]*core.AcousticImage, error) {
	caps, noiseOnly, err := CollectPlacements(spec)
	if err != nil {
		return nil, err
	}
	var out []*core.AcousticImage
	for pl, cap := range caps {
		var res *core.ProcessResult
		if useRanging {
			res, err = sys.ProcessRecordedContext(ctx, cap, noiseOnly, nil)
		} else {
			preRoll := sim.DefaultConfig().PreRollSec
			res, err = sys.ProcessAtDistance(ctx, cap, spec.DistanceM, preRoll, noiseOnly)
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: process placement %d (user %d): %w", pl, spec.Profile.ID, err)
		}
		out = append(out, res.Images...)
		if useRanging && len(spec.PlaneOffsets) > 0 && len(res.Images) > 0 {
			base := res.Images[0].PlaneDistM
			for _, off := range spec.PlaneOffsets {
				if off == 0 || base+off <= 0 {
					continue
				}
				extra, err := sys.ProcessAtDistance(ctx, cap, base+off, res.Distance.EmissionSec, noiseOnly)
				if err != nil {
					return nil, fmt.Errorf("dataset: offset plane %+.3f placement %d (user %d): %w", off, pl, spec.Profile.ID, err)
				}
				out = append(out, extra.Images...)
			}
		}
	}
	return out, nil
}

package core

import (
	"context"
	"fmt"
	"time"

	"echoimage/internal/array"
)

// System bundles the sensing pipeline front end: ranging plus imaging with
// a shared configuration and array geometry. Imaging implements §V-C:
// build a virtual imaging plane at the estimated user distance,
// MVDR-steer the array to each grid, and set each pixel to the L2 norm of
// the beamformed segment around the grid's expected round-trip delay.
type System struct {
	cfg    Config
	arr    *array.Array
	ranger *DistanceEstimator
}

// NewSystem builds the pipeline for an array geometry.
func NewSystem(cfg Config, arr *array.Array) (*System, error) {
	ranger, err := NewDistanceEstimator(cfg, arr)
	if err != nil {
		return nil, err
	}
	return &System{cfg: cfg, arr: arr, ranger: ranger}, nil
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// Array returns the microphone geometry.
func (s *System) Array() *array.Array { return s.arr }

// Ranger returns the distance estimation component.
func (s *System) Ranger() *DistanceEstimator { return s.ranger }

// ProcessResult is the sensing front end's output for one capture.
type ProcessResult struct {
	Distance *DistanceEstimate
	// Images holds one acoustic image per beep (AI_l).
	Images []*AcousticImage
}

// ProcessRecordedContext runs ranging followed by imaging on a capture.
// noiseOnly may be nil (noise statistics fall back to the window tails).
// The imaging plane distance is the ranging estimate, unquantized.
// Ranging and the full-band imaging pass share one preprocessed capture —
// the bandpass, analytic conversion and noise covariance are computed
// once, not per stage.
//
// A non-nil recorder receives the preprocess, ranging and imaging
// durations as they complete; a nil recorder adds no work to the hot
// path. The context is checked between pipeline stages and, inside
// imaging, between the (beep, row) render batches — mirroring
// TrainAuthenticator — so a serving layer can stop a request whose client
// is gone or whose deadline passed instead of burning the remaining
// imaging CPU. A cancelled run returns the context's error; partial
// results are discarded.
func (s *System) ProcessRecordedContext(ctx context.Context, cap *Capture, noiseOnly [][]float64, rec StageRecorder) (*ProcessResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var mark time.Time
	if rec != nil {
		mark = time.Now()
	}
	pre, err := preprocess(s.cfg, cap, noiseOnly)
	if err != nil {
		return nil, fmt.Errorf("core: distance estimation: %w", err)
	}
	if rec != nil {
		now := time.Now()
		rec.RecordStage(StagePreprocess, now.Sub(mark))
		mark = now
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	dist, err := s.ranger.estimate(cap.SampleRate, pre, true)
	if err != nil {
		return nil, fmt.Errorf("core: distance estimation: %w", err)
	}
	if rec != nil {
		now := time.Now()
		rec.RecordStage(StageRanging, now.Sub(mark))
		mark = now
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	imgs, err := s.constructAll(ctx, cap, dist.UserM, dist.EmissionSec, noiseOnly, pre)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, fmt.Errorf("core: image construction: %w", err)
	}
	if rec != nil {
		rec.RecordStage(StageImaging, time.Since(mark))
	}
	return &ProcessResult{Distance: dist, Images: imgs}, nil
}

// ProcessAtDistance skips ranging and images directly at a known plane
// distance, with emission assumed at the window start offset emissionSec.
// With Config.ImagingSubBands > 1 each returned image additionally
// carries per-sub-band images (frequency-diverse imaging). Cancelling ctx
// abandons the construction as in ProcessRecordedContext.
func (s *System) ProcessAtDistance(ctx context.Context, cap *Capture, planeDist, emissionSec float64, noiseOnly [][]float64) (*ProcessResult, error) {
	imgs, err := s.constructAll(ctx, cap, planeDist, emissionSec, noiseOnly, nil)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, fmt.Errorf("core: image construction: %w", err)
	}
	return &ProcessResult{Images: imgs}, nil
}

// Package core implements the paper's primary contribution: the EchoImage
// pipeline. It chains the three components of Figure 3 — distance
// estimation (§V-B), acoustic image construction (§V-C) and user
// authentication (§V-D/E) — plus the inverse-square data augmentation of
// §V-F, on top of the dsp/array/beamform substrates.
package core

import (
	"fmt"
	"math"

	"echoimage/internal/array"
	"echoimage/internal/chirp"
)

// Config gathers every tunable of the sensing pipeline. DefaultConfig
// matches the paper's parameters; tests shrink the imaging grid for speed.
type Config struct {
	// Chirp is the probe beep (2–3 kHz, 2 ms at 48 kHz by default).
	Chirp chirp.Params

	// BandLowHz and BandHighHz bound the Butterworth bandpass applied to
	// every channel before any processing (§V-B: "A 2 to 3 kHz Butterworth
	// bandpass filter is then applied").
	BandLowHz  float64
	BandHighHz float64
	// FilterOrder is the Butterworth prototype order (digital order is
	// twice this).
	FilterOrder int

	// RangingAzimuth and RangingElevation steer the array for distance
	// estimation (§V-B: θ = π/2, φ ∈ [π/3, 2π/3]).
	RangingAzimuth   float64
	RangingElevation float64

	// ChirpPeriodSec is the span after the first correlation peak treated
	// as the direct-path chirp (§V-B: 0.002 s).
	ChirpPeriodSec float64
	// EchoWindowSec is the span after the chirp period searched for body
	// echoes (§V-B: 0.01 s).
	EchoWindowSec float64
	// PeakMinDistSec is the paper's d: the neighbourhood a local maximum
	// must dominate.
	PeakMinDistSec float64
	// PeakThresholdFrac is the paper's th expressed as a fraction of the
	// envelope's global maximum; it bounds which local maxima enter the
	// MaxSet at all. Body echoes can be orders of magnitude below the
	// direct path in the squared-envelope domain, so this is small.
	PeakThresholdFrac float64
	// DirectThresholdFrac identifies τ₁: the first MaxSet peak at or above
	// this fraction of the global maximum is taken as the direct-path
	// reception.
	DirectThresholdFrac float64
	// EchoPick selects how the body-echo delay τ_w′ is chosen inside the
	// echo window.
	EchoPick EchoPickMode
	// NearestSurfaceOffsetM converts the leading-edge estimate (distance
	// to the nearest body surface, roughly at array height) into the
	// user-array distance D_p by adding the mean front-surface depth of a
	// standing torso. Only used by EchoPickLeadingEdge.
	NearestSurfaceOffsetM float64

	// SpeakerMicDistM is the known device geometry: distance from the
	// speaker to the array center, used to recover the emission time from
	// the direct-path peak.
	SpeakerMicDistM float64

	// GridRows and GridCols define the imaging plane's K = rows×cols
	// grids; GridSpacingM is the grid edge length (§V-C: 180×180 grids of
	// 0.01 m in the feasibility study).
	GridRows, GridCols int
	GridSpacingM       float64
	// PlaneCenterZM vertically centers the imaging plane relative to the
	// array plane.
	PlaneCenterZM float64
	// SegmentGuardSec is the paper's d′: half-width of the echo segment
	// around the expected round-trip delay 2·D_k/c.
	SegmentGuardSec float64
	// ImagingSubBands, when > 1, additionally images each beep in that
	// many equal sub-bands of [BandLowHz, BandHighHz]. Scatterer
	// interference varies with frequency, so the sub-band stack adds
	// user-specific spectral dimensions that the full-band energy image
	// integrates away; geometric nuisances shift all bands coherently.
	// 1 reproduces the paper's single full-band image.
	ImagingSubBands int

	// CovLoading is the diagonal loading added to noise covariance
	// estimates before inversion.
	CovLoading float64
	// CovShrinkage blends the estimated noise covariance toward identity:
	// ρ ← (1−s)·ρ + s·I. A 6×6 covariance estimated from a short
	// band-limited noise window has few effective degrees of freedom: its
	// sampling error perturbs the MVDR weights and with them the whole
	// image, and test-time interference moves the weights away from the
	// enrollment-time geometry. Both effects dominate intra-user
	// variation, so the default shrinkage of 1 uses fixed (identity-
	// covariance) weights — MVDR degrades gracefully to delay-and-sum —
	// and the adaptive variant (s < 1) is kept for ablation.
	CovShrinkage float64
	// NoiseTailFrac is the trailing fraction of each beep window used to
	// estimate the noise covariance when no dedicated noise capture is
	// supplied.
	NoiseTailFrac float64
}

// EchoPickMode selects the body-echo delay estimator within the echo
// window.
type EchoPickMode int

// Echo-pick modes.
const (
	// EchoPickCentroid uses the squared-envelope-weighted mean delay over
	// the echo window. The paper's largest-peak rule flips between body
	// scatterer clusters when their relative strengths drift session to
	// session; the centroid degrades gracefully instead. This is the
	// default; the largest-peak ablation quantifies the difference.
	EchoPickCentroid EchoPickMode = iota + 1
	// EchoPickLargest is the paper's rule: the MaxSet local maximum with
	// the largest envelope value inside the echo window (§V-B).
	EchoPickLargest
	// EchoPickLeadingEdge takes the first crossing of a fraction of the
	// echo window's maximum: the nearest body point. A standing body spans
	// ~30 cm of slant range, so "largest" and "centroid" estimators wander
	// across scatterer clusters between sessions; the leading edge tracks
	// the same nearest surface every time.
	EchoPickLeadingEdge
)

// DefaultConfig returns the paper's parameter set with a full-scale
// 180×180 imaging plane.
func DefaultConfig() Config {
	return Config{
		Chirp:                 chirp.Default(),
		BandLowHz:             2000,
		BandHighHz:            3000,
		FilterOrder:           4,
		RangingAzimuth:        math.Pi / 2,
		RangingElevation:      math.Pi / 3,
		ChirpPeriodSec:        0.002,
		EchoWindowSec:         0.010,
		PeakMinDistSec:        0.0006,
		PeakThresholdFrac:     1e-4,
		DirectThresholdFrac:   0.25,
		EchoPick:              EchoPickLeadingEdge,
		NearestSurfaceOffsetM: 0.08,
		SpeakerMicDistM:       0.05,
		GridRows:              180,
		GridCols:              180,
		GridSpacingM:          0.01,
		PlaneCenterZM:         0,
		SegmentGuardSec:       0.001,
		ImagingSubBands:       1,
		CovLoading:            1e-2,
		CovShrinkage:          1,
		NoiseTailFrac:         0.25,
	}
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	if err := c.Chirp.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	switch {
	case !(0 < c.BandLowHz && c.BandLowHz < c.BandHighHz):
		return fmt.Errorf("core: invalid band (%g, %g)", c.BandLowHz, c.BandHighHz)
	case c.BandHighHz >= c.Chirp.SampleRate/2:
		return fmt.Errorf("core: band edge %g beyond Nyquist", c.BandHighHz)
	case c.FilterOrder < 1:
		return fmt.Errorf("core: filter order %d < 1", c.FilterOrder)
	case c.GridRows < 2 || c.GridCols < 2:
		return fmt.Errorf("core: imaging grid %dx%d too small", c.GridRows, c.GridCols)
	case c.GridSpacingM <= 0:
		return fmt.Errorf("core: grid spacing %g <= 0", c.GridSpacingM)
	case c.ChirpPeriodSec <= 0 || c.EchoWindowSec <= 0:
		return fmt.Errorf("core: non-positive search windows")
	case c.SegmentGuardSec <= 0:
		return fmt.Errorf("core: segment guard %g <= 0", c.SegmentGuardSec)
	case c.NoiseTailFrac <= 0 || c.NoiseTailFrac >= 1:
		return fmt.Errorf("core: noise tail fraction %g outside (0, 1)", c.NoiseTailFrac)
	case c.RangingElevation <= 0 || c.RangingElevation >= math.Pi:
		return fmt.Errorf("core: ranging elevation %g outside (0, π)", c.RangingElevation)
	}
	return nil
}

// CenterFreqHz returns the narrowband beamforming design frequency.
func (c Config) CenterFreqHz() float64 { return (c.BandLowHz + c.BandHighHz) / 2 }

// RangingDirection returns the Ω = {θ, φ} used for distance estimation.
func (c Config) RangingDirection() array.Direction {
	return array.Direction{Azimuth: c.RangingAzimuth, Elevation: c.RangingElevation}
}

// Capture is one authentication attempt's raw sensor data: the bandpassed
// or raw multichannel recordings of L beeps.
type Capture struct {
	// Beeps is indexed [beep][mic][sample]; every beep window starts at
	// (or near) the beep's emission and shares a length.
	Beeps [][][]float64
	// SampleRate of the recordings in Hz.
	SampleRate float64
	// Reference optionally holds a background-calibration beep window
	// [mic][sample]: the empty scene's response (direct path + static
	// clutter) recorded once at installation. When present it is
	// subtracted from every beep before processing, cancelling the direct
	// path's correlation tail that otherwise masks weak far echoes.
	Reference [][]float64
}

// Validate checks shape consistency and returns the (mics, samples) shape.
// A reference, when present, must carry one non-empty channel per mic.
func (c *Capture) Validate() (mics, samples int, err error) {
	if len(c.Beeps) == 0 {
		return 0, 0, fmt.Errorf("core: capture has no beeps")
	}
	if c.SampleRate <= 0 {
		return 0, 0, fmt.Errorf("core: capture sample rate %g <= 0", c.SampleRate)
	}
	mics = len(c.Beeps[0])
	if mics == 0 {
		return 0, 0, fmt.Errorf("core: beep 0 has no channels")
	}
	samples = len(c.Beeps[0][0])
	if samples == 0 {
		return 0, 0, fmt.Errorf("core: empty recording")
	}
	for l, beep := range c.Beeps {
		if len(beep) != mics {
			return 0, 0, fmt.Errorf("core: beep %d has %d channels, want %d", l, len(beep), mics)
		}
		for m, ch := range beep {
			if len(ch) != samples {
				return 0, 0, fmt.Errorf("core: beep %d mic %d has %d samples, want %d", l, m, len(ch), samples)
			}
		}
	}
	if c.Reference != nil {
		if len(c.Reference) != mics {
			return 0, 0, fmt.Errorf("core: reference has %d channels, want %d", len(c.Reference), mics)
		}
		for m, ch := range c.Reference {
			if len(ch) == 0 {
				return 0, 0, fmt.Errorf("core: reference mic %d is empty", m)
			}
		}
	}
	return mics, samples, nil
}

// Package echoimage is a Go reproduction of "EchoImage: User
// Authentication on Smart Speakers Using Acoustic Signals" (Ren et al.,
// IEEE ICDCS 2023).
//
// EchoImage authenticates smart-speaker users from acoustic images: the
// speaker emits short 2–3 kHz chirps, a six-microphone circular array
// records the echoes bouncing off the user's body, and the pipeline
// estimates the user's distance (MVDR beamforming + matched filtering),
// constructs an acoustic image over a virtual plane at that distance
// (per-grid MVDR steering + echo-segment energy), extracts features with a
// frozen convolutional network, and authenticates with SVDD + multi-class
// SVM classifiers.
//
// The physical sensing layer is not reproducible in software, so the
// module ships a physically based acoustic scene simulator (internal/sim)
// and a parametric human-body reflector model (internal/body) that
// exercise the identical processing path; see DESIGN.md for the
// substitution map.
//
// Quickstart:
//
//	ctx := context.Background()
//	sys, _ := echoimage.NewSystem(echoimage.DefaultConfig())
//	cap, noise, _ := echoimage.Simulate(echoimage.SimulateSpec{UserID: 1, DistanceM: 0.7, Beeps: 20})
//	res, _ := sys.ProcessRecordedContext(ctx, cap, noise, nil) // ranging + imaging
//	auth, _ := echoimage.Train(ctx, echoimage.DefaultAuthConfig(), enrollment)
//	decision, _ := auth.AuthenticateMajorityRecorded(res.Images, nil)
package echoimage

import (
	"context"
	"fmt"
	"io"

	"echoimage/internal/array"
	"echoimage/internal/body"
	"echoimage/internal/core"
	"echoimage/internal/dataset"
	"echoimage/internal/sim"
)

// Re-exported pipeline types. The implementation lives in internal
// packages; these aliases are the public API surface.
type (
	// Config gathers every tunable of the sensing pipeline.
	Config = core.Config
	// AuthConfig parameterizes the classifier stack.
	AuthConfig = core.AuthConfig
	// Capture is one authentication attempt's multichannel beep
	// recordings.
	Capture = core.Capture
	// System bundles distance estimation and image construction.
	System = core.System
	// ProcessResult is the sensing front end's output.
	ProcessResult = core.ProcessResult
	// DistanceEstimate is the ranging component's output.
	DistanceEstimate = core.DistanceEstimate
	// AcousticImage is an acoustic image with its plane geometry.
	AcousticImage = core.AcousticImage
	// Authenticator is the trained classifier stack.
	Authenticator = core.Authenticator
	// AuthResult is one authentication decision.
	AuthResult = core.AuthResult
	// Profile is a synthetic subject of the body model.
	Profile = body.Profile
	// Environment selects a simulated venue.
	Environment = sim.Environment
	// NoiseCondition selects simulated interference.
	NoiseCondition = sim.NoiseCondition
)

// Venue and interference presets.
const (
	EnvLab            = sim.EnvLab
	EnvConferenceHall = sim.EnvConferenceHall
	EnvOutdoor        = sim.EnvOutdoor

	NoiseQuiet   = sim.NoiseQuiet
	NoiseMusic   = sim.NoiseMusic
	NoiseChatter = sim.NoiseChatter
	NoiseTraffic = sim.NoiseTraffic
)

// DefaultConfig returns the paper's sensing parameters (2–3 kHz chirps at
// 48 kHz, 180×180 imaging grids of 1 cm). Shrink GridRows/GridCols (with a
// correspondingly larger GridSpacingM) for interactive use.
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultAuthConfig returns the paper's classifier stack configuration.
func DefaultAuthConfig() AuthConfig { return core.DefaultAuthConfig() }

// NewSystem builds the sensing pipeline on the ReSpeaker-like 6-microphone
// circular array the paper prototypes with.
func NewSystem(cfg Config) (*System, error) {
	return core.NewSystem(cfg, array.ReSpeaker())
}

// Train fits the authenticator from enrollment images keyed by user ID.
// Cancelling ctx abandons the train.
func Train(ctx context.Context, cfg AuthConfig, enrollment map[int][]*AcousticImage) (*Authenticator, error) {
	return core.TrainAuthenticator(ctx, cfg, enrollment)
}

// Augment synthesizes a training image at a new plane distance via the
// paper's inverse-square transform (Eq. 13–15).
func Augment(img *AcousticImage, newDistanceM float64) (*AcousticImage, error) {
	return core.Augment(img, newDistanceM)
}

// LoadAuthenticator restores a model previously serialized with
// (*Authenticator).Save, so trained enrollments survive restarts.
func LoadAuthenticator(r io.Reader) (*Authenticator, error) {
	return core.LoadAuthenticator(r)
}

// Roster returns the paper's 20 synthetic Table I subjects.
func Roster() []Profile { return body.Roster() }

// SimulateSpec describes a synthetic capture of one subject.
type SimulateSpec struct {
	// UserID selects a roster subject (1–20).
	UserID int
	// DistanceM is the user-array distance.
	DistanceM float64
	// Beeps is the number of probe chirps.
	Beeps int
	// Session varies the subject's stance (posture, clothing); the paper
	// collects sessions days apart.
	Session int
	// Env and Noise select the venue and interference; zero values mean
	// the quiet laboratory.
	Env   Environment
	Noise NoiseCondition
	// NoiseLevelDB is the played-noise level (defaults to 50 dB when a
	// non-quiet condition is selected).
	NoiseLevelDB float64
	// Seed decorrelates noise realizations of otherwise-identical specs.
	Seed int64
}

// Simulate renders a synthetic capture of a roster subject together with a
// noise-only recording for covariance estimation.
func Simulate(spec SimulateSpec) (*Capture, [][]float64, error) {
	roster := body.Roster()
	if spec.UserID < 1 || spec.UserID > len(roster) {
		return nil, nil, fmt.Errorf("echoimage: user ID %d outside roster 1-%d", spec.UserID, len(roster))
	}
	env := spec.Env
	if env == 0 {
		env = sim.EnvLab
	}
	noise := spec.Noise
	if noise == 0 {
		noise = sim.NoiseQuiet
	}
	session := spec.Session
	if session == 0 {
		session = 1
	}
	beeps := spec.Beeps
	if beeps == 0 {
		beeps = 20
	}
	ds := dataset.SessionSpec{
		Profile:      roster[spec.UserID-1],
		Env:          env,
		Noise:        noise,
		NoiseLevelDB: spec.NoiseLevelDB,
		DistanceM:    spec.DistanceM,
		Session:      session,
		Beeps:        beeps,
		Placements:   1,
		Seed:         spec.Seed,
	}
	return dataset.Collect(ds)
}

// SimulateImages renders a capture and runs it through the full sensing
// front end, returning one acoustic image per beep. Cancelling ctx
// abandons the processing.
func SimulateImages(ctx context.Context, sys *System, spec SimulateSpec) ([]*AcousticImage, error) {
	cap, noiseOnly, err := Simulate(spec)
	if err != nil {
		return nil, err
	}
	res, err := sys.ProcessRecordedContext(ctx, cap, noiseOnly, nil)
	if err != nil {
		return nil, err
	}
	return res.Images, nil
}

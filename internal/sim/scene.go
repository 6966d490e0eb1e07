// Package sim is the physical substrate EchoImage's sensing runs on in this
// reproduction. The paper captures echoes with a real ReSpeaker array in
// real rooms; that hardware path is not reproducible in software, so sim
// implements the closest synthetic equivalent: analytic LFM sources, point
// reflectors with exact fractional propagation delays and inverse-square
// spreading per leg, per-environment clutter and reverberation, and
// spectrally shaped directional noise sources — all rendered into the same
// M-channel 48 kHz sample streams the hardware would produce.
package sim

import (
	"fmt"
	"math"
	"math/rand"

	"echoimage/internal/array"
	"echoimage/internal/chirp"
)

// Reflector is an idealized acoustic point scatterer. Strength aggregates
// the reflection coefficient and effective area; received amplitude from a
// monostatic probe is Strength / (d_src→refl · d_refl→mic).
type Reflector struct {
	Pos array.Vec3
	// Strength is the dimensionless scattering strength.
	Strength float64
}

// NoiseSource is a localized wide-sense-stationary interferer (the paper
// plays music / chatting / traffic noise from a computer 1–2 m away).
type NoiseSource struct {
	Pos array.Vec3
	// Spectrum shapes the noise; see the Spectrum constructors.
	Spectrum Spectrum
	// LevelDB is the source level on the scene's relative dB scale (the
	// paper's quiet rooms are ~30 dB, played noise ~50 dB).
	LevelDB float64
}

// Config controls a capture.
type Config struct {
	// SampleRate of the virtual microphones, Hz.
	SampleRate float64
	// WindowSec is how long each beep is recorded, measured from the beep's
	// emission time. It must cover the direct path plus the farthest echo
	// of interest (50 ms covers ~8.5 m of round trip).
	WindowSec float64
	// PreRollSec is recorded before each beep's emission, as a real capture
	// pipeline would: it gives the matched filter a noise floor ahead of
	// the direct path and a clean segment for noise statistics.
	PreRollSec float64
	// SensorNoiseRMS is the per-microphone independent electronic noise
	// floor.
	SensorNoiseRMS float64
	// ClipLevel, when > 0, saturates samples to ±ClipLevel (ADC clipping
	// failure injection).
	ClipLevel float64
	// ReferenceDB is the relative level that maps to unit RMS at 1 m; noise
	// source amplitudes scale as 10^((LevelDB-ReferenceDB)/20).
	ReferenceDB float64
}

// DefaultConfig returns capture parameters matched to the paper's
// prototype.
func DefaultConfig() Config {
	return Config{
		SampleRate:     48000,
		WindowSec:      0.05,
		PreRollSec:     0.005,
		SensorNoiseRMS: 0.02,
		ReferenceDB:    70,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.SampleRate <= 0:
		return fmt.Errorf("sim: sample rate %g <= 0", c.SampleRate)
	case c.WindowSec <= 0:
		return fmt.Errorf("sim: window %g <= 0", c.WindowSec)
	case c.PreRollSec < 0:
		return fmt.Errorf("sim: negative pre-roll %g", c.PreRollSec)
	case c.SensorNoiseRMS < 0:
		return fmt.Errorf("sim: negative sensor noise %g", c.SensorNoiseRMS)
	}
	return nil
}

// Scene is a complete virtual capture setup: geometry, scatterers and
// interference. Scenes are cheap to construct and immutable once built;
// Capture derives all randomness from the seed passed in, so identical
// calls reproduce identical recordings.
type Scene struct {
	Array      *array.Array
	SpeakerPos array.Vec3
	// Reflectors are static scatterers (walls, furniture).
	Reflectors []Reflector
	// Body are the user's scatterers; Motion animates them beep to beep.
	Body []Reflector
	// Motion models the user's involuntary micro-movement between beeps
	// (postural sway, breathing); nil freezes the body.
	Motion *MotionConfig
	Noise  []NoiseSource
	// Reverb adds a diffuse exponentially decaying tail excited by each
	// beep; nil disables it.
	Reverb *ReverbConfig
	Config Config
}

// MotionConfig animates the body reflectors across a beep train. A
// standing user is never perfectly still: the center of mass drifts
// (postural sway), the chest moves with breathing, and the surface
// micro-jitters. These movements are what give one enrollment session a
// realistic intra-class spread.
type MotionConfig struct {
	// SwayStepM is the per-beep random-walk step of the whole-body offset
	// in x and y.
	SwayStepM float64
	// SwayMaxM clamps the accumulated sway.
	SwayMaxM float64
	// BreathAmpM is the breathing displacement amplitude along y.
	BreathAmpM float64
	// BreathPeriodSec is the breathing cycle length.
	BreathPeriodSec float64
	// PointJitterM is independent per-scatterer positional noise per beep.
	PointJitterM float64
}

// DefaultMotion returns micro-movement magnitudes typical of quiet
// standing: millimeter-scale sway and breathing.
func DefaultMotion() *MotionConfig {
	return &MotionConfig{
		SwayStepM:       0.0025,
		SwayMaxM:        0.01,
		BreathAmpM:      0.003,
		BreathPeriodSec: 4,
		PointJitterM:    0.0005,
	}
}

// ReverbConfig models the diffuse late reverberation of a room as
// bandlimited noise with an exponential decay, uncorrelated across
// microphones (a standard diffuse-field approximation).
type ReverbConfig struct {
	// RT60 is the time for the tail to decay by 60 dB, seconds.
	RT60 float64
	// Level is the tail's initial RMS relative to the direct-path peak.
	Level float64
	// OnsetSec delays the tail start after each beep.
	OnsetSec float64
}

// NewScene builds a scene around the given array with the default config.
// The speaker sits 5 cm below the array center, mimicking the paper's
// "omni-directional speaker placed besides the array".
func NewScene(arr *array.Array) *Scene {
	return &Scene{
		Array:      arr,
		SpeakerPos: array.Vec3{X: 0, Y: 0, Z: -0.05},
		Config:     DefaultConfig(),
	}
}

// Capture renders the microphone signals for every beep of the train. The
// result is indexed [beep][mic][sample]. All randomness (noise, reverb)
// derives from seed.
func (s *Scene) Capture(train chirp.Train, seed int64) ([][][]float64, error) {
	if s.Array == nil {
		return nil, fmt.Errorf("sim: scene has no array")
	}
	if err := s.Config.Validate(); err != nil {
		return nil, err
	}
	if err := train.Validate(); err != nil {
		return nil, err
	}
	if train.Chirp.SampleRate != s.Config.SampleRate {
		return nil, fmt.Errorf("sim: chirp rate %g != capture rate %g", train.Chirp.SampleRate, s.Config.SampleRate)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([][][]float64, train.Count)
	var swayX, swayY float64
	breathPhase := rng.Float64() * 2 * math.Pi
	for l := 0; l < train.Count; l++ {
		body := s.bodyAtBeep(l, train.IntervalSec, &swayX, &swayY, breathPhase, rng)
		beep, err := s.captureBeep(train.Chirp, body, rng)
		if err != nil {
			return nil, fmt.Errorf("sim: beep %d: %w", l, err)
		}
		out[l] = beep
	}
	return out, nil
}

// bodyAtBeep returns the body scatterers displaced by the accumulated
// micro-motion at beep l.
func (s *Scene) bodyAtBeep(l int, intervalSec float64, swayX, swayY *float64, breathPhase float64, rng *rand.Rand) []Reflector {
	if len(s.Body) == 0 {
		return nil
	}
	if s.Motion == nil {
		return s.Body
	}
	m := s.Motion
	// Random-walk sway with clamping.
	*swayX = clampAbs(*swayX+rng.NormFloat64()*m.SwayStepM, m.SwayMaxM)
	*swayY = clampAbs(*swayY+rng.NormFloat64()*m.SwayStepM, m.SwayMaxM)
	var breath float64
	if m.BreathAmpM > 0 && m.BreathPeriodSec > 0 {
		t := float64(l) * intervalSec
		breath = m.BreathAmpM * math.Sin(2*math.Pi*t/m.BreathPeriodSec+breathPhase)
	}
	out := make([]Reflector, len(s.Body))
	for i, r := range s.Body {
		r.Pos.X += *swayX
		r.Pos.Y += *swayY + breath
		if m.PointJitterM > 0 {
			r.Pos.X += rng.NormFloat64() * m.PointJitterM
			r.Pos.Y += rng.NormFloat64() * m.PointJitterM
			r.Pos.Z += rng.NormFloat64() * m.PointJitterM
		}
		out[i] = r
	}
	return out
}

func clampAbs(v, lim float64) float64 {
	if v > lim {
		return lim
	}
	if v < -lim {
		return -lim
	}
	return v
}

// CaptureReference renders one beep window of the empty scene: the direct
// path and static clutter without the user, interferers or reverberation.
// A deployed system records this once at installation (background
// calibration); subtracting it from live captures removes the direct
// path's correlation tail, which otherwise buries weak far-body echoes.
// Sensor noise stays on, bounding the cancellation like a real calibration.
func (s *Scene) CaptureReference(c chirp.Params, seed int64) ([][]float64, error) {
	if s.Array == nil {
		return nil, fmt.Errorf("sim: scene has no array")
	}
	if err := s.Config.Validate(); err != nil {
		return nil, err
	}
	ref := *s
	ref.Body = nil
	ref.Noise = nil
	ref.Reverb = nil
	rng := rand.New(rand.NewSource(seed))
	beep, err := ref.captureBeep(c, nil, rng)
	if err != nil {
		return nil, fmt.Errorf("sim: reference beep: %w", err)
	}
	return beep, nil
}

// CaptureNoiseFor renders durSec seconds with the speaker silent. Longer
// noise captures give the MVDR noise covariance more effective degrees of
// freedom; a deployed system records them in the gaps between beeps.
func (s *Scene) CaptureNoiseFor(seed int64, durSec float64) ([][]float64, error) {
	if s.Array == nil {
		return nil, fmt.Errorf("sim: scene has no array")
	}
	if err := s.Config.Validate(); err != nil {
		return nil, err
	}
	if durSec <= 0 {
		return nil, fmt.Errorf("sim: noise capture duration %g <= 0", durSec)
	}
	rng := rand.New(rand.NewSource(seed))
	m := s.Array.Len()
	n := int(math.Round(durSec * s.Config.SampleRate))
	if n < 1 {
		n = 1
	}
	chans := make([][]float64, m)
	for c := range chans {
		chans[c] = make([]float64, n)
	}
	s.addNoise(chans, rng)
	s.finalize(chans)
	return chans, nil
}

func (s *Scene) numSamples() int {
	n := int(math.Round((s.Config.WindowSec + s.Config.PreRollSec) * s.Config.SampleRate))
	if n < 1 {
		n = 1
	}
	return n
}

func (s *Scene) captureBeep(c chirp.Params, body []Reflector, rng *rand.Rand) ([][]float64, error) {
	m := s.Array.Len()
	n := s.numSamples()
	fs := s.Config.SampleRate
	chans := make([][]float64, m)
	for ch := range chans {
		chans[ch] = make([]float64, n)
	}

	chirpSamples := c.NumSamples()
	preRoll := s.Config.PreRollSec
	addArrival := func(ch []float64, delaySec, amp float64) {
		delaySec += preRoll
		start := int(math.Floor(delaySec * fs))
		if start >= n {
			return
		}
		if start < 0 {
			start = 0
		}
		end := start + chirpSamples + 2
		if end > n {
			end = n
		}
		// Chirp evaluation at the arrival's exact fractional delay; the
		// recurrence form replaces per-sample trigonometry.
		c.Accumulate(ch[start:end], float64(start)/fs-delaySec, 1/fs, amp)
	}

	for mi := 0; mi < m; mi++ {
		mic := s.Array.Mic(mi)
		// Direct path speaker → mic.
		dDirect := s.SpeakerPos.Dist(mic)
		if dDirect < 0.01 {
			dDirect = 0.01
		}
		addArrival(chans[mi], dDirect/array.SpeedOfSound, 1/dDirect)
		// Echoes speaker → reflector → mic, for static clutter and the
		// (possibly animated) body alike.
		for _, set := range [2][]Reflector{s.Reflectors, body} {
			for _, r := range set {
				d1 := s.SpeakerPos.Dist(r.Pos)
				d2 := r.Pos.Dist(mic)
				if d1 < 0.01 {
					d1 = 0.01
				}
				if d2 < 0.01 {
					d2 = 0.01
				}
				addArrival(chans[mi], (d1+d2)/array.SpeedOfSound, r.Strength/(d1*d2))
			}
		}
	}

	if s.Reverb != nil {
		s.addReverb(chans, c, rng)
	}
	s.addNoise(chans, rng)
	s.finalize(chans)
	return chans, nil
}

// addReverb injects a diffuse exponentially decaying bandlimited tail.
func (s *Scene) addReverb(chans [][]float64, c chirp.Params, rng *rand.Rand) {
	rv := s.Reverb
	if rv.RT60 <= 0 || rv.Level <= 0 {
		return
	}
	fs := s.Config.SampleRate
	n := len(chans[0])
	onset := int((rv.OnsetSec + s.Config.PreRollSec) * fs)
	if onset < 0 {
		onset = 0
	}
	// Direct-path peak amplitude at the array for scaling.
	dDirect := s.SpeakerPos.Dist(s.Array.Mic(0))
	if dDirect < 0.01 {
		dDirect = 0.01
	}
	peak := c.Amplitude / dDirect
	decayPerSample := math.Pow(10, -3/(rv.RT60*fs)) // -60 dB over RT60
	band := BandNoise(c.StartHz, c.EndHz)
	for mi := range chans {
		tail := band.Generate(rng, n, fs)
		env := rv.Level * peak
		for i := onset; i < n; i++ {
			chans[mi][i] += tail[i] * env
			env *= decayPerSample
		}
	}
}

// addNoise renders every noise source into the channels with per-mic
// propagation delay and 1/r attenuation, then adds independent sensor
// noise.
func (s *Scene) addNoise(chans [][]float64, rng *rand.Rand) {
	fs := s.Config.SampleRate
	n := len(chans[0])
	const margin = 512 // headroom for propagation delays
	for _, src := range s.Noise {
		amp := math.Pow(10, (src.LevelDB-s.Config.ReferenceDB)/20)
		if amp <= 0 {
			continue
		}
		wave := src.Spectrum.Generate(rng, n+margin, fs)
		for mi := range chans {
			d := src.Pos.Dist(s.Array.Mic(mi))
			if d < 0.1 {
				d = 0.1
			}
			delay := d / array.SpeedOfSound * fs
			gain := amp / d
			base := int(math.Floor(delay))
			frac := delay - float64(base)
			for i := 0; i < n; i++ {
				j := i + base
				if j+1 >= len(wave) {
					break
				}
				v := wave[j]*(1-frac) + wave[j+1]*frac
				chans[mi][i] += gain * v
			}
		}
	}
	if s.Config.SensorNoiseRMS > 0 {
		for mi := range chans {
			for i := range chans[mi] {
				chans[mi][i] += rng.NormFloat64() * s.Config.SensorNoiseRMS
			}
		}
	}
}

func (s *Scene) finalize(chans [][]float64) {
	if s.Config.ClipLevel > 0 {
		lim := s.Config.ClipLevel
		for mi := range chans {
			for i, v := range chans[mi] {
				if v > lim {
					chans[mi][i] = lim
				} else if v < -lim {
					chans[mi][i] = -lim
				}
			}
		}
	}
}

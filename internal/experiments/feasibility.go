package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"

	"echoimage/internal/aimage"
	"echoimage/internal/array"
	"echoimage/internal/body"
	"echoimage/internal/chirp"
	"echoimage/internal/core"
	"echoimage/internal/sim"
)

// TableIResult summarizes the synthetic roster against the paper's Table I.
type TableIResult struct {
	Rows []body.RosterEntry
	// Profiles are the generated subjects.
	Profiles []body.Profile
}

// TableI materializes the demographics table and the deterministic
// synthetic subjects generated from it.
func TableI() TableIResult {
	return TableIResult{Rows: body.TableI(), Profiles: body.Roster()}
}

// Write renders the table.
func (r TableIResult) Write(w io.Writer) {
	fmt.Fprintln(w, "Table I — demographics of subjects (synthetic roster)")
	fmt.Fprintf(w, "%-8s %-8s %-7s %s\n", "User ID", "Gender", "Age", "Occupation")
	for _, row := range r.Rows {
		ids := fmt.Sprintf("%d-%d", row.FirstID, row.LastID)
		if row.FirstID == row.LastID {
			ids = fmt.Sprintf("%d", row.FirstID)
		}
		fmt.Fprintf(w, "%-8s %-8s %-7s %s\n", ids, row.Gender, row.AgeBand, row.Occupation)
	}
	fmt.Fprintf(w, "generated profiles: %d (height %.2f–%.2f m)\n",
		len(r.Profiles), minHeight(r.Profiles), maxHeight(r.Profiles))
}

func minHeight(ps []body.Profile) float64 {
	m := ps[0].HeightM
	for _, p := range ps[1:] {
		if p.HeightM < m {
			m = p.HeightM
		}
	}
	return m
}

func maxHeight(ps []body.Profile) float64 {
	m := ps[0].HeightM
	for _, p := range ps[1:] {
		if p.HeightM > m {
			m = p.HeightM
		}
	}
	return m
}

// Figure5Result reproduces the §V-B feasibility study: the correlation
// envelope E(t) with its direct-path and body-echo structure, and the
// resulting distance estimate for a user at 0.6 m.
type Figure5Result struct {
	TrueDistanceM      float64
	EstimatedDistanceM float64
	SlantM             float64
	DirectPeakSec      float64
	EchoPeakSec        float64
	NumPeaks           int
	// EnvelopeDownsampled is E(t) thinned for plotting/inspection.
	EnvelopeDownsampled []float64
}

// Figure5 runs the ranging feasibility study: one volunteer 0.6 m in front
// of the array in a quiet lab, RangingBeeps chirps.
func Figure5(s Scale) (*Figure5Result, error) {
	sys, err := s.NewSystem()
	if err != nil {
		return nil, err
	}
	const distance = 0.6
	profile := body.Roster()[6] // a graduate-student volunteer
	cap, noiseOnly, err := feasibilityCapture(profile, distance, s.RangingBeeps, 42)
	if err != nil {
		return nil, err
	}
	est, err := sys.Ranger().Estimate(cap, noiseOnly)
	if err != nil {
		return nil, fmt.Errorf("experiments: figure 5 ranging: %w", err)
	}
	res := &Figure5Result{
		TrueDistanceM:      distance,
		EstimatedDistanceM: est.UserM,
		SlantM:             est.SlantM,
		DirectPeakSec:      est.DirectPeakSec,
		EchoPeakSec:        est.EchoPeakSec,
		NumPeaks:           len(est.Peaks),
	}
	const plotPoints = 200
	step := len(est.Envelope) / plotPoints
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(est.Envelope); i += step {
		res.EnvelopeDownsampled = append(res.EnvelopeDownsampled, est.Envelope[i])
	}
	return res, nil
}

// Write renders the result.
func (r *Figure5Result) Write(w io.Writer) {
	fmt.Fprintln(w, "Figure 5 — distance estimation feasibility (paper: 0.58 m estimated for 0.6 m truth)")
	fmt.Fprintf(w, "true distance:      %.2f m\n", r.TrueDistanceM)
	fmt.Fprintf(w, "estimated distance: %.3f m (slant %.3f m)\n", r.EstimatedDistanceM, r.SlantM)
	fmt.Fprintf(w, "direct-path peak:   τ₁ = %.4f s\n", r.DirectPeakSec)
	fmt.Fprintf(w, "body-echo arrival:  τ′ = %.4f s (%d MaxSet peaks)\n", r.EchoPeakSec, r.NumPeaks)
}

func feasibilityCapture(p body.Profile, distance float64, beeps int, seed int64) (*core.Capture, [][]float64, error) {
	spec, err := sim.EnvLab.Spec()
	if err != nil {
		return nil, nil, err
	}
	noiseSources, err := spec.NoiseSources(sim.NoiseQuiet, 0)
	if err != nil {
		return nil, nil, err
	}
	stance := body.DefaultStance(distance)
	rng := rand.New(rand.NewSource(seed))
	scene := sim.NewScene(array.ReSpeaker())
	scene.Reflectors = spec.Clutter
	scene.Body = p.Reflectors(body.DefaultReflectorConfig(), stance, rng)
	scene.Motion = sim.DefaultMotion()
	scene.Noise = noiseSources
	scene.Reverb = spec.Reverb
	train := chirp.Train{Chirp: chirp.Default(), IntervalSec: 0.5, Count: beeps}
	recs, err := scene.Capture(train, seed)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: feasibility capture: %w", err)
	}
	noiseOnly, err := scene.CaptureNoiseFor(seed+5, 0.5)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: feasibility noise capture: %w", err)
	}
	reference, err := scene.CaptureReference(train.Chirp, seed+9)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: feasibility reference: %w", err)
	}
	return &core.Capture{Beeps: recs, SampleRate: scene.Config.SampleRate, Reference: reference}, noiseOnly, nil
}

// Figure8Result reproduces the §V-C feasibility study: acoustic images of
// two users, with intra-user and inter-user similarity.
type Figure8Result struct {
	SameUserCorrelation  float64
	CrossUserCorrelation float64
	ImageA, ImageB       *core.AcousticImage
}

// Figure8 images users A and B at 0.7 m (2 beeps each, per the paper) and
// compares the images.
func Figure8(ctx context.Context, s Scale) (*Figure8Result, error) {
	sys, err := s.NewSystem()
	if err != nil {
		return nil, err
	}
	roster := body.Roster()
	userA, userB := roster[0], roster[7]
	const distance = 0.7

	process := func(p body.Profile, seed int64) ([]*core.AcousticImage, error) {
		cap, noiseOnly, err := feasibilityCapture(p, distance, 2, seed)
		if err != nil {
			return nil, err
		}
		res, err := sys.ProcessRecordedContext(ctx, cap, noiseOnly, nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: figure 8 user %d: %w", p.ID, err)
		}
		return res.Images, nil
	}
	imgsA, err := process(userA, 101)
	if err != nil {
		return nil, err
	}
	imgsB, err := process(userB, 202)
	if err != nil {
		return nil, err
	}
	same, err := aimage.Correlation(imgsA[0].Image, imgsA[1].Image)
	if err != nil {
		return nil, err
	}
	cross, err := aimage.Correlation(imgsA[0].Image, imgsB[0].Image)
	if err != nil {
		return nil, err
	}
	return &Figure8Result{
		SameUserCorrelation:  same,
		CrossUserCorrelation: cross,
		ImageA:               imgsA[0],
		ImageB:               imgsB[0],
	}, nil
}

// Write renders the result, including terminal previews of both images.
func (r *Figure8Result) Write(w io.Writer) {
	fmt.Fprintln(w, "Figure 8 — acoustic images of user A and B (paper: same-user similar, cross-user distinct)")
	fmt.Fprintf(w, "same-user correlation:  %.4f\n", r.SameUserCorrelation)
	fmt.Fprintf(w, "cross-user correlation: %.4f\n", r.CrossUserCorrelation)
	fmt.Fprintln(w, "user A:")
	fmt.Fprintln(w, indent(r.ImageA.ASCIIArt(48), "  "))
	fmt.Fprintln(w, "user B:")
	fmt.Fprintln(w, indent(r.ImageB.ASCIIArt(48), "  "))
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = prefix + l
	}
	return strings.Join(lines, "\n")
}

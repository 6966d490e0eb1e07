package experiments

import (
	"context"
	"fmt"

	"echoimage/internal/array"
	"echoimage/internal/body"
	"echoimage/internal/core"
	"echoimage/internal/dataset"
	"echoimage/internal/metrics"
	"echoimage/internal/sim"
)

// arrayGeometry returns the prototype's microphone layout (ReSpeaker).
func arrayGeometry() *array.Array { return array.ReSpeaker() }

// Condition fixes the venue and interference for a collection.
type Condition struct {
	Env     sim.Environment
	Noise   sim.NoiseCondition
	LevelDB float64
}

// QuietLab is the paper's default condition for Figs. 5, 8, 11, 13, 14.
func QuietLab() Condition {
	return Condition{Env: sim.EnvLab, Noise: sim.NoiseQuiet}
}

// Session seed bases; training and test captures must never share noise
// realizations.
const (
	seedEnroll = 1_000
	seedTestS1 = 77_000
	seedTestS3 = 3_000
	seedSpoof  = 9_000
)

// enrollUser renders one subject's enrollment session (Session 1) and
// returns its per-beep images.
func enrollUser(ctx context.Context, sys *core.System, p body.Profile, cond Condition, distance float64, s Scale) ([]*core.AcousticImage, error) {
	spec := dataset.SessionSpec{
		Profile:    p,
		Env:        cond.Env,
		Noise:      sim.NoiseQuiet, // the paper trains in quiet rooms (§VI-A1)
		DistanceM:  distance,
		Session:    1,
		Beeps:      s.TrainBeeps,
		Placements: s.TrainPlacements,
		Seed:       seedEnroll,
	}
	imgs, err := dataset.CollectImages(ctx, sys, spec, true)
	if err != nil {
		return nil, fmt.Errorf("experiments: enroll user %d: %w", p.ID, err)
	}
	return imgs, nil
}

// testUser renders a subject's test data: leftover Session 1 chirps plus
// Session 3 chirps (the paper's protocol), under the given condition.
func testUser(ctx context.Context, sys *core.System, p body.Profile, cond Condition, distance float64, s Scale) ([]*core.AcousticImage, error) {
	var out []*core.AcousticImage
	if s.TestBeepsS1 > 0 {
		spec := dataset.SessionSpec{
			Profile:      p,
			Env:          cond.Env,
			Noise:        cond.Noise,
			NoiseLevelDB: cond.LevelDB,
			DistanceM:    distance,
			Session:      1,
			Beeps:        s.TestBeepsS1,
			Placements:   maxInt(1, s.TrainPlacements/2),
			Seed:         seedTestS1,
		}
		imgs, err := dataset.CollectImages(ctx, sys, spec, true)
		if err != nil {
			return nil, fmt.Errorf("experiments: test user %d session 1: %w", p.ID, err)
		}
		out = append(out, imgs...)
	}
	if s.TestBeepsS3 > 0 {
		spec := dataset.SessionSpec{
			Profile:      p,
			Env:          cond.Env,
			Noise:        cond.Noise,
			NoiseLevelDB: cond.LevelDB,
			DistanceM:    distance,
			Session:      3,
			Beeps:        s.TestBeepsS3,
			Placements:   1,
			Seed:         seedTestS3,
		}
		imgs, err := dataset.CollectImages(ctx, sys, spec, true)
		if err != nil {
			return nil, fmt.Errorf("experiments: test user %d session 3: %w", p.ID, err)
		}
		out = append(out, imgs...)
	}
	return out, nil
}

// spooferImages renders a non-registered subject's attack attempt.
func spooferImages(ctx context.Context, sys *core.System, p body.Profile, cond Condition, distance float64, s Scale) ([]*core.AcousticImage, error) {
	spec := dataset.SessionSpec{
		Profile:      p,
		Env:          cond.Env,
		Noise:        cond.Noise,
		NoiseLevelDB: cond.LevelDB,
		DistanceM:    distance,
		Session:      3,
		Beeps:        s.TestBeepsS3 + s.TestBeepsS1/2,
		Placements:   1,
		Seed:         seedSpoof,
	}
	imgs, err := dataset.CollectImages(ctx, sys, spec, true)
	if err != nil {
		return nil, fmt.Errorf("experiments: spoofer %d: %w", p.ID, err)
	}
	return imgs, nil
}

// evalOutcome aggregates one evaluation pass.
type evalOutcome struct {
	// Confusion maps truth → prediction, with label 0 for "rejected" /
	// "spoofer".
	Confusion *metrics.Confusion
	// Binary counts authentication outcomes: positive = "accepted as the
	// intended user".
	Binary metrics.Binary
}

// evaluate runs every test image through the authenticator. tests maps
// user ID → that user's legitimate test images; spoofs holds impostor
// images (keyed by the spoofer's roster ID, which the authenticator has
// never seen).
func evaluate(auth *core.Authenticator, tests map[int][]*core.AcousticImage, spoofs map[int][]*core.AcousticImage) evalOutcome {
	out := evalOutcome{Confusion: metrics.NewConfusion()}
	for userID, imgs := range tests {
		for _, img := range imgs {
			r := auth.Authenticate(img)
			pred := 0
			if r.Accepted {
				pred = r.UserID
			}
			out.Confusion.Observe(userID, pred)
			out.Binary.Observe(true, r.Accepted && r.UserID == userID)
		}
	}
	for _, imgs := range spoofs {
		for _, img := range imgs {
			r := auth.Authenticate(img)
			pred := 0
			if r.Accepted {
				pred = r.UserID
			}
			out.Confusion.Observe(0, pred)
			out.Binary.Observe(false, r.Accepted)
		}
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

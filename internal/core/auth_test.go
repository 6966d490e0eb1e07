package core_test

import (
	"context"
	"testing"

	"echoimage/internal/array"
	"echoimage/internal/body"
	"echoimage/internal/core"
	"echoimage/internal/dataset"
	"echoimage/internal/sim"
)

func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.GridRows, cfg.GridCols = 36, 36
	cfg.GridSpacingM = 0.05
	return cfg
}

// sessionImages renders one subject session through the full pipeline.
// Multi-placement sessions (enrollment) also get multi-plane copies.
func sessionImages(t *testing.T, sys *core.System, p body.Profile, distance float64, session, beeps, placements int, seed int64) []*core.AcousticImage {
	t.Helper()
	spec := dataset.SessionSpec{
		Profile:    p,
		Env:        sim.EnvLab,
		Noise:      sim.NoiseQuiet,
		DistanceM:  distance,
		Session:    session,
		Beeps:      beeps,
		Placements: placements,
		Seed:       seed,
	}
	if placements > 1 {
		spec.PlaneOffsets = []float64{-0.03, 0.03}
	}
	imgs, err := dataset.CollectImages(context.Background(), sys, spec, true)
	if err != nil {
		t.Fatalf("collect images (user %d session %d): %v", p.ID, session, err)
	}
	return imgs
}

// TestEndToEndAuthentication enrolls three users and verifies that fresh
// captures of those users authenticate as themselves while two spoofers are
// rejected.
func TestEndToEndAuthentication(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end authentication is expensive")
	}
	sys, err := core.NewSystem(testConfig(), array.ReSpeaker())
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}

	roster := body.Roster()
	registered := roster[:3]
	spoofers := roster[12:14]
	const trainBeeps, testBeeps = 16, 6

	enrollment := make(map[int][]*core.AcousticImage, len(registered))
	for _, p := range registered {
		enrollment[p.ID] = sessionImages(t, sys, p, 0.7, 1, trainBeeps, 4, 1000)
	}
	auth, err := core.TrainAuthenticator(context.Background(), core.DefaultAuthConfig(), enrollment)
	if err != nil {
		t.Fatalf("TrainAuthenticator: %v", err)
	}

	correctID, total := 0, 0
	for _, p := range registered {
		imgs := sessionImages(t, sys, p, 0.7, 3, testBeeps, 1, 2000)
		for _, img := range imgs {
			r := auth.Authenticate(img)
			total++
			if r.Accepted && r.UserID == p.ID {
				correctID++
			} else {
				t.Logf("user %d: accepted=%v id=%d score=%.3f", p.ID, r.Accepted, r.UserID, r.GateScore)
			}
		}
	}
	idAcc := float64(correctID) / float64(total)
	t.Logf("registered-user authentication accuracy: %.3f (%d/%d)", idAcc, correctID, total)
	if idAcc < 0.8 {
		t.Errorf("registered-user accuracy %.3f below 0.8", idAcc)
	}

	rejected, spoofTotal := 0, 0
	for _, p := range spoofers {
		imgs := sessionImages(t, sys, p, 0.7, 3, testBeeps, 1, 3000)
		for _, img := range imgs {
			r := auth.Authenticate(img)
			spoofTotal++
			if !r.Accepted {
				rejected++
			} else {
				t.Logf("spoofer %d accepted as %d score=%.3f", p.ID, r.UserID, r.GateScore)
			}
		}
	}
	rejAcc := float64(rejected) / float64(spoofTotal)
	t.Logf("spoofer rejection accuracy: %.3f (%d/%d)", rejAcc, rejected, spoofTotal)
	if rejAcc < 0.8 {
		t.Errorf("spoofer rejection %.3f below 0.8", rejAcc)
	}
}

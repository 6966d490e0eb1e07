package echoimage_test

import (
	"context"
	"math"
	"testing"

	"echoimage"
)

func smallConfig() echoimage.Config {
	cfg := echoimage.DefaultConfig()
	cfg.GridRows, cfg.GridCols = 24, 24
	cfg.GridSpacingM = 0.08
	return cfg
}

func TestSimulateValidation(t *testing.T) {
	if _, _, err := echoimage.Simulate(echoimage.SimulateSpec{UserID: 0, DistanceM: 0.7}); err == nil {
		t.Error("user 0 accepted")
	}
	if _, _, err := echoimage.Simulate(echoimage.SimulateSpec{UserID: 21, DistanceM: 0.7}); err == nil {
		t.Error("user 21 accepted")
	}
}

func TestRosterExposed(t *testing.T) {
	roster := echoimage.Roster()
	if len(roster) != 20 {
		t.Fatalf("roster %d, want 20", len(roster))
	}
}

func TestPublicPipelineEndToEnd(t *testing.T) {
	sys, err := echoimage.NewSystem(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cap, noiseOnly, err := echoimage.Simulate(echoimage.SimulateSpec{
		UserID: 5, DistanceM: 0.7, Beeps: 6, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.ProcessRecordedContext(context.Background(), cap, noiseOnly, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Images) != 6 {
		t.Fatalf("%d images", len(res.Images))
	}
	if math.Abs(res.Distance.UserM-0.7) > 0.3 {
		t.Errorf("estimated %g m for a 0.7 m user", res.Distance.UserM)
	}
	// Augmentation through the facade.
	synth, err := echoimage.Augment(res.Images[0], 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if synth.PlaneDistM != 1.0 {
		t.Errorf("augmented plane %g", synth.PlaneDistM)
	}
}

func TestPublicTrainAuthenticate(t *testing.T) {
	if testing.Short() {
		t.Skip("training is expensive")
	}
	sys, err := echoimage.NewSystem(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	enrollment := make(map[int][]*echoimage.AcousticImage)
	for _, id := range []int{1, 2} {
		var pool []*echoimage.AcousticImage
		for p := 0; p < 3; p++ {
			imgs, err := echoimage.SimulateImages(context.Background(), sys, echoimage.SimulateSpec{
				UserID: id, DistanceM: 0.7, Beeps: 5, Session: 1, Seed: int64(100*id + p),
			})
			if err != nil {
				t.Fatal(err)
			}
			pool = append(pool, imgs...)
		}
		enrollment[id] = pool
	}
	auth, err := echoimage.Train(context.Background(), echoimage.DefaultAuthConfig(), enrollment)
	if err != nil {
		t.Fatal(err)
	}
	if got := auth.Users(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Users() = %v", got)
	}
	imgs, err := echoimage.SimulateImages(context.Background(), sys, echoimage.SimulateSpec{
		UserID: 1, DistanceM: 0.7, Beeps: 4, Session: 3, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := auth.AuthenticateMajorityRecorded(imgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("returning user 1: accepted=%v id=%d score=%.3f", d.Accepted, d.UserID, d.GateScore)
	if d.Accepted && d.UserID != 1 {
		t.Errorf("user 1 misidentified as %d", d.UserID)
	}
}

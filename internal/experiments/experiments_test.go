package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestTableI(t *testing.T) {
	r := TableI()
	if len(r.Profiles) != 20 {
		t.Fatalf("%d profiles", len(r.Profiles))
	}
	if len(r.Rows) != 5 {
		t.Fatalf("%d strata rows", len(r.Rows))
	}
	var buf bytes.Buffer
	r.Write(&buf)
	out := buf.String()
	for _, want := range []string{"Undergraduate Student", "Graduate Student", "Faculty"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q", want)
		}
	}
}

func TestScalesValid(t *testing.T) {
	for _, s := range []Scale{Quick(), CI(), Paper()} {
		if err := s.PipelineConfig().Validate(); err != nil {
			t.Errorf("scale %s: %v", s.Name, err)
		}
		if s.TrainBeeps < s.TrainPlacements {
			t.Errorf("scale %s: %d beeps < %d placements", s.Name, s.TrainBeeps, s.TrainPlacements)
		}
	}
}

func TestFigure5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	s := Quick()
	r, err := Figure5(s)
	if err != nil {
		t.Fatal(err)
	}
	// The paper recovers 0.58 m for a 0.6 m stance; we accept a generous
	// band (the leading-edge estimator has a per-user anatomical offset).
	if r.EstimatedDistanceM < 0.4 || r.EstimatedDistanceM > 0.9 {
		t.Errorf("estimated %.3f m for a 0.6 m user", r.EstimatedDistanceM)
	}
	if r.EchoPeakSec <= r.DirectPeakSec {
		t.Error("echo not after the direct path")
	}
	var buf bytes.Buffer
	r.Write(&buf)
	if !strings.Contains(buf.String(), "estimated distance") {
		t.Error("report missing estimate")
	}
}

func TestFigure8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	s := Quick()
	r, err := Figure8(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if r.SameUserCorrelation <= r.CrossUserCorrelation {
		t.Errorf("same-user correlation %.3f not above cross-user %.3f",
			r.SameUserCorrelation, r.CrossUserCorrelation)
	}
	if r.SameUserCorrelation < 0.5 {
		t.Errorf("same-user correlation %.3f too low", r.SameUserCorrelation)
	}
}

func TestFigure11Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	s := Quick()
	s.Registered = 3
	s.Spoofers = 2
	r, err := Figure11(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Registered) != 3 {
		t.Fatalf("%d registered", len(r.Registered))
	}
	if r.RegisteredAccuracy < 0.5 {
		t.Errorf("registered accuracy %.3f unexpectedly low", r.RegisteredAccuracy)
	}
	if r.SpooferDetection < 0.5 {
		t.Errorf("spoofer detection %.3f unexpectedly low", r.SpooferDetection)
	}
	var buf bytes.Buffer
	r.Write(&buf)
	if !strings.Contains(buf.String(), "confusion matrix") {
		t.Error("report missing confusion matrix")
	}
}

func TestReplayAttackSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	s := Quick()
	r, err := ReplayAttack(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if r.ReplaySamples == 0 || r.LegitSamples == 0 {
		t.Fatalf("empty result %+v", r)
	}
	// The loudspeaker prop must be rejected at least as reliably as
	// legitimate users are accepted.
	if r.ReplayRejection < 0.8 {
		t.Errorf("replay rejection %.3f below 0.8", r.ReplayRejection)
	}
}

func TestGateROCSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	s := Quick()
	s.Registered = 3
	s.Spoofers = 2
	r, err := GateROC(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if r.AUC < 0.7 {
		t.Errorf("gate AUC %.3f below 0.7", r.AUC)
	}
	if r.EER > 0.4 {
		t.Errorf("gate EER %.3f above 0.4", r.EER)
	}
}

func TestSessionStabilitySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	s := Quick()
	s.EnvUsers = 3
	r, err := SessionStability(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("%d session rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Samples == 0 {
			t.Errorf("session %d has no samples", row.Session)
		}
	}
}

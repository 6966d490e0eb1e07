package core_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"echoimage/internal/core"
	"echoimage/internal/dataset"
)

// cancelAfterStage is a StageRecorder that cancels a context the moment a
// chosen pipeline stage completes, and remembers every stage it saw.
type cancelAfterStage struct {
	after  string
	cancel context.CancelFunc
	seen   []string
}

func (r *cancelAfterStage) RecordStage(stage string, d time.Duration) {
	r.seen = append(r.seen, stage)
	if stage == r.after {
		r.cancel()
	}
}

// TestProcessContextCancelStopsBeforeImaging is the pipeline-cancellation
// proof: a context cancelled right after ranging must abort the request
// before image construction completes — the imaging stage is never
// recorded and no partial result leaks out.
func TestProcessContextCancelStopsBeforeImaging(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	sys := smallSystem(t)
	cap, noiseOnly, err := dataset.Collect(quickSpec(1, 1, 3, 7))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := &cancelAfterStage{after: core.StageRanging, cancel: cancel}
	res, err := sys.ProcessRecordedContext(ctx, cap, noiseOnly, rec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pipeline returned %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("cancelled pipeline leaked a partial result")
	}
	for _, s := range rec.seen {
		if s == core.StageImaging {
			t.Error("imaging stage completed despite cancellation after ranging")
		}
	}
}

// TestProcessContextPreCancelled pins the cheap path: an already-dead
// context is rejected before any pipeline stage runs.
func TestProcessContextPreCancelled(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	sys := smallSystem(t)
	cap, noiseOnly, err := dataset.Collect(quickSpec(1, 1, 1, 8))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := &cancelAfterStage{cancel: func() {}}
	if _, err := sys.ProcessRecordedContext(ctx, cap, noiseOnly, rec); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled context returned %v, want context.Canceled", err)
	}
	if len(rec.seen) != 0 {
		t.Errorf("pre-cancelled run still recorded stages %v", rec.seen)
	}
}

// TestProcessContextBackgroundUnchanged guards the non-cancelling path:
// a live cancellable context with a recorder attached yields exactly the
// result of a background run without one.
func TestProcessContextBackgroundUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	sys := smallSystem(t)
	cap, noiseOnly, err := dataset.Collect(quickSpec(1, 1, 2, 9))
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.ProcessRecordedContext(context.Background(), cap, noiseOnly, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := &cancelAfterStage{cancel: func() {}}
	got, err := sys.ProcessRecordedContext(ctx, cap, noiseOnly, rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.seen) != 3 {
		t.Errorf("recorded stages %v, want preprocess, ranging, imaging", rec.seen)
	}
	if len(got.Images) != len(want.Images) {
		t.Fatalf("%d images with a live context, %d with background", len(got.Images), len(want.Images))
	}
	if got.Distance.UserM != want.Distance.UserM {
		t.Errorf("ranging diverged: %v vs %v", got.Distance.UserM, want.Distance.UserM)
	}
	for l := range got.Images {
		for i, v := range got.Images[l].Pix {
			if v != want.Images[l].Pix[i] {
				t.Fatalf("image %d pixel %d diverged", l, i)
			}
		}
	}
}

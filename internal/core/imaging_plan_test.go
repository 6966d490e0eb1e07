package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"echoimage/internal/aimage"
	"echoimage/internal/array"
	"echoimage/internal/beamform"
	"echoimage/internal/body"
)

// planTestSetup preprocesses a small capture and builds the band
// beamformer, mirroring what constructBand does internally.
func planTestSetup(t *testing.T) (Config, *preprocessed, *beamform.Beamformer, *Capture) {
	t.Helper()
	cfg := testImagingConfig()
	cfg.GridRows, cfg.GridCols = 12, 12
	cfg.GridSpacingM = 0.15
	capd := captureUser(t, body.Roster()[0], 0.7, 2, 41)
	p, err := preprocess(cfg, capd, nil)
	if err != nil {
		t.Fatalf("preprocess: %v", err)
	}
	bf, err := beamform.New(array.ReSpeaker(), p.noiseCov, cfg.CenterFreqHz())
	if err != nil {
		t.Fatalf("beamformer: %v", err)
	}
	return cfg, p, bf, capd
}

// renderUnplanned is the reference implementation: per-pixel weight solve
// and segment integration exactly as the pre-plan imager performed them.
func renderUnplanned(t *testing.T, cfg Config, fs float64, bf *beamform.Beamformer, chans [][]complex128, planeDist, emissionSec, noisePower float64) *AcousticImage {
	t.Helper()
	ai := &AcousticImage{
		Image:         aimage.New(cfg.GridRows, cfg.GridCols),
		PlaneDistM:    planeDist,
		GridSpacingM:  cfg.GridSpacingM,
		PlaneCenterZM: cfg.PlaneCenterZM,
	}
	samples := len(chans[0])
	guard := int(cfg.SegmentGuardSec * fs)
	if guard < 1 {
		guard = 1
	}
	for r := 0; r < ai.Rows; r++ {
		for c := 0; c < ai.Cols; c++ {
			center := ai.GridCenter(r, c)
			dk := center.Norm()
			dir := array.DirectionTo(center)
			w, err := bf.WeightsFor(dir)
			if err != nil {
				t.Fatalf("weights (%d,%d): %v", r, c, err)
			}
			centerIdx := int((emissionSec + 2*dk/array.SpeedOfSound) * fs)
			lo, hi := centerIdx-guard, centerIdx+guard
			if lo < 0 {
				lo = 0
			}
			if hi > samples {
				hi = samples
			}
			var energy float64
			if lo < hi {
				for ti := lo; ti < hi; ti++ {
					var s complex128
					for m := range chans {
						s += complex(real(w[m]), -imag(w[m])) * chans[m][ti]
					}
					energy += real(s)*real(s) + imag(s)*imag(s)
				}
				var w2 float64
				for _, wm := range w {
					w2 += real(wm)*real(wm) + imag(wm)*imag(wm)
				}
				energy -= noisePower * w2 * float64(hi-lo)
				if energy < 0 {
					energy = 0
				}
			}
			ai.Set(r, c, math.Sqrt(energy))
		}
	}
	ref := directPathReference(fs, cfg, chans, emissionSec)
	if ref > 0 {
		inv := 1 / ref
		for i := range ai.Pix {
			ai.Pix[i] *= inv
		}
	}
	return ai
}

// TestImagingPlanMatchesUnplannedRender is the plan-correctness property
// test: rendering through the precomputed plan must agree with the
// per-pixel solve-and-integrate reference within 1e-12 on every pixel.
func TestImagingPlanMatchesUnplannedRender(t *testing.T) {
	cfg, p, bf, capd := planTestSetup(t)
	const planeDist, emissionSec = 0.7, 0.005
	plan, err := NewImagingPlan(context.Background(), cfg, bf, capd.SampleRate, p.samples, planeDist, emissionSec)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	for l, chans := range p.analytic {
		got, err := plan.Render(chans, 0, p.noisePower)
		if err != nil {
			t.Fatalf("render beep %d: %v", l, err)
		}
		want := renderUnplanned(t, cfg, capd.SampleRate, bf, chans, planeDist, emissionSec, p.noisePower)
		if got.Rows != want.Rows || got.Cols != want.Cols {
			t.Fatalf("beep %d: shape %dx%d != %dx%d", l, got.Rows, got.Cols, want.Rows, want.Cols)
		}
		for i := range got.Pix {
			if d := math.Abs(got.Pix[i] - want.Pix[i]); d > 1e-12 {
				t.Fatalf("beep %d pixel %d: planned %g vs unplanned %g (|Δ|=%g)", l, i, got.Pix[i], want.Pix[i], d)
			}
		}
	}
}

// TestConstructAllMatchesPlanRender cross-checks the full pipeline path
// (shared plan + batched pool) against individual plan renders.
func TestConstructAllMatchesPlanRender(t *testing.T) {
	cfg, p, bf, capd := planTestSetup(t)
	im, err := NewImager(cfg, array.ReSpeaker())
	if err != nil {
		t.Fatalf("imager: %v", err)
	}
	const planeDist, emissionSec = 0.7, 0.005
	imgs, err := im.constructAll(context.Background(), capd, planeDist, emissionSec, nil, nil)
	if err != nil {
		t.Fatalf("construct: %v", err)
	}
	plan, err := NewImagingPlan(context.Background(), cfg, bf, capd.SampleRate, p.samples, planeDist, emissionSec)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	for l, chans := range p.analytic {
		want, err := plan.Render(chans, p.refRMS, p.noisePower)
		if err != nil {
			t.Fatalf("render: %v", err)
		}
		for i := range imgs[l].Pix {
			if d := math.Abs(imgs[l].Pix[i] - want.Pix[i]); d > 1e-12 {
				t.Fatalf("beep %d pixel %d: pipeline %g vs plan %g", l, i, imgs[l].Pix[i], want.Pix[i])
			}
		}
	}
}

// TestImagingPlanConcurrentReuse renders all beeps through one shared plan
// from many goroutines; -race plus the determinism check verify that plan
// reuse is safe.
func TestImagingPlanConcurrentReuse(t *testing.T) {
	cfg, p, bf, capd := planTestSetup(t)
	plan, err := NewImagingPlan(context.Background(), cfg, bf, capd.SampleRate, p.samples, 0.7, 0.005)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	wants := make([]*AcousticImage, len(p.analytic))
	for l, chans := range p.analytic {
		if wants[l], err = plan.Render(chans, 0, p.noisePower); err != nil {
			t.Fatalf("render: %v", err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				l := (g + rep) % len(p.analytic)
				got, err := plan.Render(p.analytic[l], 0, p.noisePower)
				if err != nil {
					errs <- err
					return
				}
				for i := range got.Pix {
					if got.Pix[i] != wants[l].Pix[i] {
						errs <- fmt.Errorf("goroutine %d beep %d: pixel %d differs", g, l, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestImagingPlanConcurrentBuildSharedBeamformer builds several plans at
// once from one shared Beamformer, so the pooled steering buffers and the
// immutable Cholesky factor are hammered from many goroutines (the plan
// build itself fans rows over a worker pool, multiplying the concurrency).
// Run under -race this pins the factor-once/solve-many retrofit; the plans
// must also agree exactly, since the solves are deterministic.
func TestImagingPlanConcurrentBuildSharedBeamformer(t *testing.T) {
	cfg, p, bf, capd := planTestSetup(t)
	const builders = 6
	plans := make([]*ImagingPlan, builders)
	var wg sync.WaitGroup
	errs := make(chan error, builders)
	for g := 0; g < builders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			plan, err := NewImagingPlan(context.Background(), cfg, bf, capd.SampleRate, p.samples, 0.7, 0.005)
			if err != nil {
				errs <- err
				return
			}
			plans[g] = plan
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for g := 1; g < builders; g++ {
		for k := range plans[0].weightsConj {
			for m := range plans[0].weightsConj[k] {
				if plans[g].weightsConj[k][m] != plans[0].weightsConj[k][m] {
					t.Fatalf("plan %d pixel %d weight %d differs from plan 0", g, k, m)
				}
			}
		}
	}
}

// TestImagingPlanSolverErrorNoDeadlock is the regression test for the
// worker-pool deadlock: when every worker exits early on a solver error,
// the row producer must not block forever on the unbuffered task channel.
func TestImagingPlanSolverErrorNoDeadlock(t *testing.T) {
	cfg := testImagingConfig()
	cfg.GridRows, cfg.GridCols = 64, 8
	cfg.Workers = 2
	failing := func(array.Direction) ([]complex128, error) {
		return nil, fmt.Errorf("injected solver failure")
	}
	done := make(chan error, 1)
	go func() {
		_, err := buildImagingPlan(context.Background(), cfg, failing, 48000, 2640, 0.7, 0)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("plan build with failing solver returned nil error")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("plan build deadlocked on solver failure")
	}
}

// TestImagingPlanPartialSolverError exercises the path where only some
// pixels fail, so some workers are mid-row when the error fires.
func TestImagingPlanPartialSolverError(t *testing.T) {
	cfg := testImagingConfig()
	cfg.GridRows, cfg.GridCols = 48, 6
	cfg.Workers = 4
	var calls int32
	var mu sync.Mutex
	solve := func(array.Direction) ([]complex128, error) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n > 40 {
			return nil, fmt.Errorf("injected failure after %d solves", n)
		}
		return make([]complex128, 6), nil
	}
	done := make(chan error, 1)
	go func() {
		_, err := buildImagingPlan(context.Background(), cfg, solve, 48000, 2640, 0.7, 0)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected injected error")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("plan build deadlocked on partial solver failure")
	}
}

// TestImagingPlanRenderValidation checks channel-shape validation.
func TestImagingPlanRenderValidation(t *testing.T) {
	cfg, p, bf, capd := planTestSetup(t)
	plan, err := NewImagingPlan(context.Background(), cfg, bf, capd.SampleRate, p.samples, 0.7, 0)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if _, err := plan.Render(p.analytic[0][:3], 0, 0); err == nil {
		t.Error("render with missing channels succeeded")
	}
	short := make([][]complex128, len(p.analytic[0]))
	for m := range short {
		short[m] = p.analytic[0][m][:10]
	}
	if _, err := plan.Render(short, 0, 0); err == nil {
		t.Error("render with short channels succeeded")
	}
	if _, err := buildImagingPlan(context.Background(), cfg, bf.WeightsFor, 48000, 2640, 0, 0); err == nil {
		t.Error("plan with zero plane distance succeeded")
	}
	if _, err := buildImagingPlan(context.Background(), cfg, bf.WeightsFor, 0, 2640, 0.7, 0); err == nil {
		t.Error("plan with zero sample rate succeeded")
	}
	if _, err := buildImagingPlan(context.Background(), cfg, bf.WeightsFor, 48000, 0, 0.7, 0); err == nil {
		t.Error("plan with zero samples succeeded")
	}
}

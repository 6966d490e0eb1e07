// Benchmarks regenerating every table and figure of the paper's evaluation
// (§VI), plus the ablations DESIGN.md calls out and micro-benchmarks of the
// pipeline stages. Figure-level benchmarks run the Quick experiment scale
// per iteration — expect seconds per op; the printed metrics (accuracy,
// F-measure, …) are the reproduction output. Run the cmd/experiments binary
// at -scale=ci or -scale=paper for the full-scale numbers recorded in
// EXPERIMENTS.md.
package echoimage_test

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"echoimage"
	"echoimage/internal/array"
	"echoimage/internal/beamform"
	"echoimage/internal/body"
	"echoimage/internal/chirp"
	"echoimage/internal/core"
	"echoimage/internal/dsp"
	"echoimage/internal/experiments"
	"echoimage/internal/features"
	"echoimage/internal/sim"
	"echoimage/internal/svm"
)

// ---- Per-table / per-figure benchmarks -------------------------------

// BenchmarkTableIRoster regenerates the Table I synthetic roster.
func BenchmarkTableIRoster(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.TableI()
		if len(r.Profiles) != 20 {
			b.Fatal("roster size")
		}
	}
}

// BenchmarkFigure5DistanceEstimation reproduces the §V-B feasibility
// study: ranging on a 0.6 m user from 20 beeps.
func BenchmarkFigure5DistanceEstimation(b *testing.B) {
	s := experiments.Quick()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure5(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("estimated %.3f m for %.2f m truth (paper: 0.58 for 0.60)",
				r.EstimatedDistanceM, r.TrueDistanceM)
		}
	}
}

// BenchmarkFigure8ImageConstruction reproduces the §V-C feasibility study:
// acoustic images of two users.
func BenchmarkFigure8ImageConstruction(b *testing.B) {
	s := experiments.Quick()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure8(context.Background(), s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("same-user corr %.3f, cross-user corr %.3f", r.SameUserCorrelation, r.CrossUserCorrelation)
		}
	}
}

// BenchmarkFigure11OverallPerformance reproduces the confusion-matrix
// study (registered users + spoofers, quiet lab, 0.7 m).
func BenchmarkFigure11OverallPerformance(b *testing.B) {
	s := experiments.Quick()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure11(context.Background(), s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("registered %.3f, spoofer detection %.3f (paper: 0.98 / 0.97)",
				r.RegisteredAccuracy, r.SpooferDetection)
		}
	}
}

// BenchmarkFigure12Environments reproduces the robustness study across
// venues and noise conditions.
func BenchmarkFigure12Environments(b *testing.B) {
	s := experiments.Quick()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure12(context.Background(), s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range r.Rows {
				b.Logf("%s/%s: accuracy %.3f", row.Env, row.Noise, row.Accuracy)
			}
		}
	}
}

// BenchmarkFigure13Distance reproduces the F-measure vs. distance sweep.
func BenchmarkFigure13Distance(b *testing.B) {
	s := experiments.Quick()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure13(context.Background(), s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range r.Rows {
				b.Logf("%.1f m: F %.3f", row.DistanceM, row.FMeasure)
			}
		}
	}
}

// BenchmarkFigure14Augmentation reproduces the training-size /
// augmentation study.
func BenchmarkFigure14Augmentation(b *testing.B) {
	s := experiments.Quick()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure14(context.Background(), s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range r.Rows {
				b.Logf("train=%d augment=%s: accuracy %.3f", row.TrainBeeps, row.Mode, row.Accuracy)
			}
		}
	}
}

// BenchmarkReplayAttack runs the extension experiment: rejecting a
// loudspeaker replay prop placed where the user stands.
func BenchmarkReplayAttack(b *testing.B) {
	s := experiments.Quick()
	for i := 0; i < b.N; i++ {
		r, err := experiments.ReplayAttack(context.Background(), s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("legit acceptance %.3f, replay rejection %.3f", r.LegitAcceptance, r.ReplayRejection)
		}
	}
}

// BenchmarkGateROC characterizes the SVDD gate as a continuous detector
// (EER / AUC over the Figure 11 protocol).
func BenchmarkGateROC(b *testing.B) {
	s := experiments.Quick()
	for i := 0; i < b.N; i++ {
		r, err := experiments.GateROC(context.Background(), s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("EER %.3f, AUC %.3f", r.EER, r.AUC)
		}
	}
}

// BenchmarkSessionStability runs the cross-session consistency study.
func BenchmarkSessionStability(b *testing.B) {
	s := experiments.Quick()
	for i := 0; i < b.N; i++ {
		r, err := experiments.SessionStability(context.Background(), s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range r.Rows {
				b.Logf("session %d: accuracy %.3f", row.Session, row.Accuracy)
			}
		}
	}
}

// BenchmarkSingleUser evaluates the paper's single-user scenario (per-
// device SVDD gate only).
func BenchmarkSingleUser(b *testing.B) {
	s := experiments.Quick()
	for i := 0; i < b.N; i++ {
		r, err := experiments.SingleUser(context.Background(), s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("FRR %.3f, FAR %.3f", r.FRR, r.FAR)
		}
	}
}

// ---- Ablation benchmarks ---------------------------------------------

// BenchmarkAblationRanging compares the distance-estimation variants
// (beamformed vs. raw channel, leading-edge vs. largest-peak vs. centroid).
func BenchmarkAblationRanging(b *testing.B) {
	s := experiments.Quick()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RangingAblation(s, 4)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.Logf("%s: |err| %.3f m, spread %.3f m, %d failures", r.Variant, r.MeanAbsErrM, r.SpreadM, r.Failures)
			}
		}
	}
}

// BenchmarkAblationAuthStack compares authentication-stack variants
// (fixed-weight vs. adaptive MVDR, pooled vs. per-user gates, WCCN,
// sub-band imaging, scale-preserving features, largest-peak ranging).
func BenchmarkAblationAuthStack(b *testing.B) {
	s := experiments.Quick()
	s.Registered = 3
	s.Spoofers = 2
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AuthAblation(context.Background(), s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.Logf("%s: registered %.3f, spoof rejection %.3f", r.Variant, r.RegisteredAccuracy, r.SpooferDetection)
			}
		}
	}
}

// ---- Scale-identification benchmarks ----------------------------------

// scaleIDBench runs the synthetic-enrollee identification study once per
// iteration and enforces its acceptance floor: sub-millisecond ANN
// lookups, and at the 100k acceptance point a ≥50× speedup over the
// exhaustive scan with shortlist recall high enough that re-ranking sees
// the true user.
func scaleIDBench(b *testing.B, cfg experiments.ScaleIDConfig, minSpeedup float64) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunScaleID(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if r.ANNP50 >= time.Millisecond {
			b.Fatalf("ANN lookup p50 %v, want < 1ms", r.ANNP50)
		}
		if minSpeedup > 0 && r.Speedup < minSpeedup {
			b.Fatalf("speedup %.1f× over exhaustive scan, want >= %.0f×", r.Speedup, minSpeedup)
		}
		if r.UserRecall < 0.99 {
			b.Fatalf("user recall %.3f, want >= 0.99", r.UserRecall)
		}
		if i == 0 {
			b.Logf("%d enrollees: build %v, ANN p50 %v p99 %v, scan p50 %v (%.0f×), user recall %.3f, top-k overlap %.3f",
				r.Enrollees, r.Build.Round(time.Millisecond), r.ANNP50, r.ANNP99, r.ScanP50, r.Speedup, r.UserRecall, r.ScanRecall)
			b.ReportMetric(float64(r.ANNP50.Nanoseconds()), "ann-p50-ns")
			b.ReportMetric(r.Speedup, "scan-speedup")
		}
	}
}

// BenchmarkScaleIdentification10k indexes 10k synthetic enrollees from
// internal/body profiles and measures ANN shortlist lookups against the
// exhaustive scan.
func BenchmarkScaleIdentification10k(b *testing.B) {
	scaleIDBench(b, experiments.ScaleID10k(), 0)
}

// BenchmarkScaleIdentification100k is the acceptance point of the
// sublinear-identification engine: 100k enrollees, sub-millisecond
// lookups, ≥50× over the exhaustive scan.
func BenchmarkScaleIdentification100k(b *testing.B) {
	scaleIDBench(b, experiments.ScaleID100k(), 50)
}

// ---- Pipeline micro-benchmarks ----------------------------------------

func benchCapture(b *testing.B, beeps int) *core.Capture {
	b.Helper()
	spec, err := sim.EnvLab.Spec()
	if err != nil {
		b.Fatal(err)
	}
	noise, err := spec.NoiseSources(sim.NoiseQuiet, 0)
	if err != nil {
		b.Fatal(err)
	}
	p := body.Roster()[0]
	scene := sim.NewScene(array.ReSpeaker())
	scene.Reflectors = spec.Clutter
	scene.Body = p.Reflectors(body.DefaultReflectorConfig(), body.DefaultStance(0.7), rand.New(rand.NewSource(1)))
	scene.Motion = sim.DefaultMotion()
	scene.Noise = noise
	scene.Reverb = spec.Reverb
	train := chirp.Train{Chirp: chirp.Default(), IntervalSec: 0.5, Count: beeps}
	recs, err := scene.Capture(train, 7)
	if err != nil {
		b.Fatal(err)
	}
	ref, err := scene.CaptureReference(train.Chirp, 9)
	if err != nil {
		b.Fatal(err)
	}
	return &core.Capture{Beeps: recs, SampleRate: scene.Config.SampleRate, Reference: ref}
}

// BenchmarkSimCaptureBeep measures synthesizing one beep window
// (~180 body scatterers × 6 microphones).
func BenchmarkSimCaptureBeep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = benchCapture(b, 1)
	}
}

// BenchmarkDistanceEstimate measures ranging on a 4-beep capture.
func BenchmarkDistanceEstimate(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.GridRows, cfg.GridCols = 16, 16
	cfg.GridSpacingM = 0.12
	est, err := core.NewDistanceEstimator(cfg, array.ReSpeaker())
	if err != nil {
		b.Fatal(err)
	}
	cap := benchCapture(b, 4)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := est.Estimate(cap, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkImageConstruction36 measures imaging one beep on the CI-scale
// 36×36 grid.
func BenchmarkImageConstruction36(b *testing.B) {
	benchImaging(b, 36, 0.05)
}

// BenchmarkImageConstruction180 measures imaging one beep at the paper's
// full 180×180 grid (K = 32400).
func BenchmarkImageConstruction180(b *testing.B) {
	benchImaging(b, 180, 0.01)
}

func benchImaging(b *testing.B, grid int, spacing float64) {
	cfg := core.DefaultConfig()
	cfg.GridRows, cfg.GridCols = grid, grid
	cfg.GridSpacingM = spacing
	sys, err := core.NewSystem(cfg, array.ReSpeaker())
	if err != nil {
		b.Fatal(err)
	}
	cap := benchCapture(b, 1)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sys.ProcessAtDistance(context.Background(), cap, 0.7, 0.005, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkImagingPlan measures rendering a 4-beep capture through one
// shared imaging plan: the per-pixel MVDR weights and segment windows are
// solved once at plan build (outside the timed loop) and reused across
// beeps, so an iteration is pure energy integration.
func BenchmarkImagingPlan(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.GridRows, cfg.GridCols = 36, 36
	cfg.GridSpacingM = 0.05
	cap := benchCapture(b, 4)
	beeps := make([][][]complex128, len(cap.Beeps))
	for l, chans := range cap.Beeps {
		beeps[l] = beamform.AnalyticChannels(chans)
	}
	bf, err := beamform.New(array.ReSpeaker(), nil, cfg.CenterFreqHz())
	if err != nil {
		b.Fatal(err)
	}
	plan, err := core.NewImagingPlan(context.Background(), cfg, bf, cap.SampleRate, len(beeps[0][0]), 0.7, 0.005)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, chans := range beeps {
			if _, err := plan.Render(chans, 0, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMatchedFilterPlan measures correlating one beep window against
// the probe chirp with the cached template spectrum.
func BenchmarkMatchedFilterPlan(b *testing.B) {
	plan := dsp.NewMatchedFilterPlan(chirp.Default().Samples())
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, 2640)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = plan.MatchedFilter(x)
	}
}

// BenchmarkFeatureExtraction measures the frozen-CNN forward pass.
func BenchmarkFeatureExtraction(b *testing.B) {
	ext, err := features.NewExtractor(features.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.GridRows, cfg.GridCols = 36, 36
	cfg.GridSpacingM = 0.05
	sys, err := core.NewSystem(cfg, array.ReSpeaker())
	if err != nil {
		b.Fatal(err)
	}
	res, err := sys.ProcessAtDistance(context.Background(), benchCapture(b, 1), 0.7, 0.005, nil)
	if err != nil {
		b.Fatal(err)
	}
	imgs := res.Images
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ext.Extract(imgs[0].Image)
	}
}

// BenchmarkExtractParallel compares the frozen-CNN forward pass with the
// conv channels fanned over the worker pool against the sequential path.
func BenchmarkExtractParallel(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.GridRows, cfg.GridCols = 36, 36
	cfg.GridSpacingM = 0.05
	sys, err := core.NewSystem(cfg, array.ReSpeaker())
	if err != nil {
		b.Fatal(err)
	}
	res, err := sys.ProcessAtDistance(context.Background(), benchCapture(b, 1), 0.7, 0.005, nil)
	if err != nil {
		b.Fatal(err)
	}
	imgs := res.Images
	for _, workers := range []int{1, 0} {
		name := "workers=1"
		if workers == 0 {
			name = "workers=max"
		}
		b.Run(name, func(b *testing.B) {
			fcfg := features.DefaultConfig()
			fcfg.Workers = workers
			ext, err := features.NewExtractor(fcfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = ext.Extract(imgs[0].Image)
			}
		})
	}
}

// BenchmarkSVMTrain measures training the one-vs-one SVM stack on a small
// enrollment set.
func BenchmarkSVMTrain(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var xs [][]float64
	var ys []int
	for class := 0; class < 4; class++ {
		for i := 0; i < 30; i++ {
			v := make([]float64, 64)
			for j := range v {
				v[j] = rng.NormFloat64()*0.3 + float64(class)
			}
			xs = append(xs, v)
			ys = append(ys, class+1)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := svm.TrainMultiClass(svm.RBF{Gamma: 0.05}, xs, ys, svm.DefaultSVCConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSVDDTrain measures fitting the one-class gate.
func BenchmarkSVDDTrain(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	var xs [][]float64
	for i := 0; i < 100; i++ {
		v := make([]float64, 64)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		xs = append(xs, v)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := svm.TrainSVDD(svm.RBF{Gamma: 0.02}, xs, svm.DefaultSVDDConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAuthenticate measures one end-to-end authentication decision on
// a pre-trained model (feature extraction + gate + identification).
func BenchmarkAuthenticate(b *testing.B) {
	cfg := echoimage.DefaultConfig()
	cfg.GridRows, cfg.GridCols = 24, 24
	cfg.GridSpacingM = 0.08
	sys, err := echoimage.NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	enrollment := make(map[int][]*echoimage.AcousticImage)
	for _, id := range []int{1, 2} {
		imgs, err := echoimage.SimulateImages(context.Background(), sys, echoimage.SimulateSpec{
			UserID: id, DistanceM: 0.7, Beeps: 8, Session: 1, Seed: int64(id),
		})
		if err != nil {
			b.Fatal(err)
		}
		enrollment[id] = imgs
	}
	auth, err := echoimage.Train(context.Background(), echoimage.DefaultAuthConfig(), enrollment)
	if err != nil {
		b.Fatal(err)
	}
	probe, err := echoimage.SimulateImages(context.Background(), sys, echoimage.SimulateSpec{
		UserID: 1, DistanceM: 0.7, Beeps: 1, Session: 3, Seed: 99,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = auth.Authenticate(probe[0])
	}
}

// BenchmarkFFT4096 measures the radix-2 transform at the matched-filter
// working size.
func BenchmarkFFT4096(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := make([]complex128, 4096)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = dsp.FFT(x)
	}
}

// BenchmarkBandpassFiltFilt measures zero-phase filtering of one beep
// window.
func BenchmarkBandpassFiltFilt(b *testing.B) {
	f, err := dsp.ButterworthBandpass(4, 2000, 3000, 48000)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	x := make([]float64, 2640)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = f.FiltFilt(x)
	}
}

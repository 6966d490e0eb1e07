package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"echoimage/internal/array"
	"echoimage/internal/beamform"
	"echoimage/internal/body"
	"echoimage/internal/chirp"
	"echoimage/internal/cmat"
	"echoimage/internal/dsp"
	"echoimage/internal/sim"
)

// captureWithNoise renders a 3-beep capture of roster user 1 at 0.7 m
// with a background reference and a noise-only recording.
func captureWithNoise(t *testing.T) (*Capture, [][]float64) {
	t.Helper()
	spec, err := sim.EnvLab.Spec()
	if err != nil {
		t.Fatal(err)
	}
	noise, err := spec.NoiseSources(sim.NoiseQuiet, 0)
	if err != nil {
		t.Fatal(err)
	}
	scene := sim.NewScene(array.ReSpeaker())
	scene.Reflectors = spec.Clutter
	scene.Body = body.Roster()[0].Reflectors(body.DefaultReflectorConfig(), body.DefaultStance(0.7), rand.New(rand.NewSource(3)))
	scene.Motion = sim.DefaultMotion()
	scene.Noise = noise
	scene.Reverb = spec.Reverb
	train := chirp.Train{Chirp: chirp.Default(), IntervalSec: 0.5, Count: 3}
	recs, err := scene.Capture(train, 5)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := scene.CaptureReference(train.Chirp, 6)
	if err != nil {
		t.Fatal(err)
	}
	noiseOnly, err := scene.CaptureNoiseFor(7, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return &Capture{Beeps: recs, SampleRate: scene.Config.SampleRate, Reference: ref}, noiseOnly
}

// estimatedCovariance is the covariance preprocess built before full
// shrinkage skipped it: estimate (noise-only recording, or the averaged
// window tails), load, then shrink.
func estimatedCovariance(t *testing.T, cfg Config, cap *Capture, noiseOnly [][]float64, p *preprocessed) *cmat.Matrix {
	t.Helper()
	if noiseOnly != nil {
		filter, err := dsp.ButterworthBandpass(cfg.FilterOrder, cfg.BandLowHz, cfg.BandHighHz, cap.SampleRate)
		if err != nil {
			t.Fatal(err)
		}
		chans := make([][]complex128, len(noiseOnly))
		for m, ch := range noiseOnly {
			chans[m] = dsp.AnalyticSignal(filter.FiltFilt(nil, ch))
		}
		cov, err := beamform.EstimateCovariance(chans, 0, len(chans[0]), cfg.CovLoading)
		if err != nil {
			t.Fatal(err)
		}
		shrinkCovariance(cov, cfg.CovShrinkage)
		return cov
	}
	start := p.samples - int(float64(p.samples)*cfg.NoiseTailFrac)
	var acc *cmat.Matrix
	for _, chans := range p.analytic {
		cov, err := beamform.EstimateCovariance(chans, start, p.samples, 0)
		if err != nil {
			t.Fatal(err)
		}
		if acc == nil {
			acc = cov
		} else {
			for i := range acc.Data {
				acc.Data[i] += cov.Data[i]
			}
		}
	}
	acc.Scale(complex(1/float64(len(p.analytic)), 0))
	acc.AddScaledIdentity(complex(cfg.CovLoading, 0))
	shrinkCovariance(acc, cfg.CovShrinkage)
	return acc
}

// TestFullShrinkageSkipsEstimate checks that building the identity
// directly under full shrinkage (the default) changes no MVDR weight over
// a 36×36 direction grid and no image pixel, on the noise-only path and
// on the window-tail path. Values are compared, not bits: Scale(0) can
// leave −0 off the diagonal of the estimated matrix.
func TestFullShrinkageSkipsEstimate(t *testing.T) {
	cfg := testImagingConfig()
	if cfg.CovShrinkage < 1 {
		t.Fatalf("default CovShrinkage %g, the test covers full shrinkage", cfg.CovShrinkage)
	}
	sys, err := NewSystem(cfg, array.ReSpeaker())
	if err != nil {
		t.Fatal(err)
	}
	cap, noise := captureWithNoise(t)
	for _, tc := range []struct {
		name  string
		noise [][]float64
	}{{"noise-only", noise}, {"window-tail", nil}} {
		p, err := preprocess(cfg, cap, tc.noise)
		if err != nil {
			t.Fatal(err)
		}
		est := *p
		est.noiseCov = estimatedCovariance(t, cfg, cap, tc.noise, p)

		bfSkip, err := beamform.New(array.ReSpeaker(), p.noiseCov, cfg.CenterFreqHz())
		if err != nil {
			t.Fatal(err)
		}
		bfEst, err := beamform.New(array.ReSpeaker(), est.noiseCov, cfg.CenterFreqHz())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 36; i++ {
			for j := 0; j < 36; j++ {
				d := array.Direction{Azimuth: 2 * math.Pi * float64(i) / 36, Elevation: math.Pi * (float64(j) + 0.5) / 36}
				ws, err := bfSkip.WeightsFor(d)
				if err != nil {
					t.Fatal(err)
				}
				we, err := bfEst.WeightsFor(d)
				if err != nil {
					t.Fatal(err)
				}
				for m := range ws {
					if ws[m] != we[m] {
						t.Fatalf("%s: direction (%d,%d) weight %d: %v != estimated %v", tc.name, i, j, m, ws[m], we[m])
					}
				}
			}
		}

		skip, err := sys.constructBand(context.Background(), cap, cfg, 0.7, 0.005, tc.noise, nil, p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sys.constructBand(context.Background(), cap, cfg, 0.7, 0.005, tc.noise, nil, &est)
		if err != nil {
			t.Fatal(err)
		}
		for l := range want {
			for k, v := range want[l].Pix {
				if skip[l].Pix[k] != v {
					t.Fatalf("%s: beep %d pixel %d: %g != estimated %g", tc.name, l, k, skip[l].Pix[k], v)
				}
			}
		}
	}
}

// TestPartialShrinkageEstimates checks that shrinkage below one still
// estimates the covariance from the data.
func TestPartialShrinkageEstimates(t *testing.T) {
	cfg := testImagingConfig()
	cfg.CovShrinkage = 0.5
	cap, noise := captureWithNoise(t)
	for _, n := range [][][]float64{noise, nil} {
		p, err := preprocess(cfg, cap, n)
		if err != nil {
			t.Fatal(err)
		}
		want := estimatedCovariance(t, cfg, cap, n, p)
		for i, v := range want.Data {
			if p.noiseCov.Data[i] != v {
				t.Fatalf("noise-only=%v: covariance entry %d: %v != %v", n != nil, i, p.noiseCov.Data[i], v)
			}
		}
	}
}

// TestPreprocessRejectsMalformedNoise checks the noise-only recording's
// shape is validated whether or not its covariance is estimated.
func TestPreprocessRejectsMalformedNoise(t *testing.T) {
	cap, noise := captureWithNoise(t)
	ragged := append([][]float64(nil), noise...)
	ragged[2] = ragged[2][:len(ragged[2])-1]
	empty := make([][]float64, len(noise))
	for _, shrink := range []float64{0.5, 1} {
		cfg := testImagingConfig()
		cfg.CovShrinkage = shrink
		for name, n := range map[string][][]float64{"short": noise[:3], "ragged": ragged, "empty": empty} {
			if _, err := preprocess(cfg, cap, n); err == nil {
				t.Errorf("shrinkage %g: %s noise capture accepted", shrink, name)
			}
		}
	}
}

package core

import (
	"fmt"
	"math"

	"echoimage/internal/beamform"
	"echoimage/internal/cmat"
	"echoimage/internal/dsp"
)

// preprocessed holds one capture after bandpass filtering, analytic
// conversion and noise-covariance estimation — the shared front end of both
// the distance estimator and the imager.
type preprocessed struct {
	// analytic is indexed [beep][mic][sample].
	analytic [][][]complex128
	// noiseCov is the normalized, diagonally loaded noise covariance.
	noiseCov *cmat.Matrix
	samples  int
	mics     int
	// refDirectIdx is the direct-path arrival sample measured on the
	// background-calibration reference, or -1 when no reference exists.
	refDirectIdx int
	// refRMS is the reference's direct-path RMS for image calibration, 0
	// when no reference exists.
	refRMS float64
	// noisePower is the mean per-channel analytic noise power in the
	// processing band, used for pixel noise-floor subtraction.
	noisePower float64
}

// preprocess bandpasses every channel with the configured Butterworth
// filter (zero-phase), converts to analytic signals and estimates the noise
// covariance. When noiseOnly is non-nil it is used for the covariance
// estimate; otherwise the trailing NoiseTailFrac of each beep window is
// used, where body echoes have died out.
func preprocess(cfg Config, cap *Capture, noiseOnly [][]float64) (*preprocessed, error) {
	mics, samples, err := cap.Validate()
	if err != nil {
		return nil, err
	}
	filter, err := dsp.ButterworthBandpass(cfg.FilterOrder, cfg.BandLowHz, cfg.BandHighHz, cap.SampleRate)
	if err != nil {
		return nil, fmt.Errorf("core: design bandpass: %w", err)
	}

	p := &preprocessed{
		analytic:     make([][][]complex128, len(cap.Beeps)),
		samples:      samples,
		mics:         mics,
		refDirectIdx: -1,
	}
	if cap.Reference != nil {
		// The reference carries the direct path; measure its arrival and
		// level once for ranging and image calibration.
		filtered := filter.FiltFilt(cap.Reference[0])
		env := dsp.Envelope(chirpFilterPlan(cfg.Chirp).MatchedFilter(filtered))
		p.refDirectIdx = dsp.ArgMax(env)
		lo := p.refDirectIdx
		hi := lo + int(cfg.Chirp.Duration*cap.SampleRate)
		var energy float64
		var count int
		for m := 0; m < mics; m++ {
			f := filter.FiltFilt(cap.Reference[m])
			a := dsp.AnalyticSignal(f)
			end := hi
			if end > len(a) {
				end = len(a)
			}
			for t := lo; t < end; t++ {
				re, im := real(a[t]), imag(a[t])
				energy += re*re + im*im
				count++
			}
		}
		if count > 0 {
			p.refRMS = math.Sqrt(energy / float64(count))
		}
	}
	for l, beep := range cap.Beeps {
		chans := make([][]complex128, mics)
		for m, ch := range beep {
			src := ch
			if cap.Reference != nil {
				// Background subtraction: cancel the static empty-scene
				// response (direct path, walls, furniture).
				ref := cap.Reference[m]
				n := len(src)
				if len(ref) < n {
					n = len(ref)
				}
				cleaned := make([]float64, len(src))
				copy(cleaned, src)
				for i := 0; i < n; i++ {
					cleaned[i] -= ref[i]
				}
				src = cleaned
			}
			filtered := filter.FiltFilt(src)
			chans[m] = dsp.AnalyticSignal(filtered)
		}
		p.analytic[l] = chans
	}

	if noiseOnly != nil {
		if len(noiseOnly) != mics {
			return nil, fmt.Errorf("core: noise capture has %d channels, want %d", len(noiseOnly), mics)
		}
		chans := make([][]complex128, mics)
		for m, ch := range noiseOnly {
			filtered := filter.FiltFilt(ch)
			chans[m] = dsp.AnalyticSignal(filtered)
		}
		cov, err := beamform.EstimateCovariance(chans, 0, len(chans[0]), cfg.CovLoading)
		if err != nil {
			return nil, fmt.Errorf("core: noise covariance: %w", err)
		}
		shrinkCovariance(cov, cfg.CovShrinkage)
		p.noiseCov = cov
		var power float64
		var count int
		for _, ch := range chans {
			for _, v := range ch {
				power += real(v)*real(v) + imag(v)*imag(v)
				count++
			}
		}
		if count > 0 {
			p.noisePower = power / float64(count)
		}
		return p, nil
	}

	// Average tail-segment covariance across beeps.
	start := samples - int(float64(samples)*cfg.NoiseTailFrac)
	if start < 0 {
		start = 0
	}
	if start >= samples-1 {
		start = samples - 2
	}
	var acc *cmat.Matrix
	for _, chans := range p.analytic {
		cov, err := beamform.EstimateCovariance(chans, start, samples, 0)
		if err != nil {
			return nil, fmt.Errorf("core: tail covariance: %w", err)
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
	p.noiseCov = acc
	var power float64
	var count int
	for _, chans := range p.analytic {
		for _, ch := range chans {
			for t := start; t < samples; t++ {
				v := ch[t]
				power += real(v)*real(v) + imag(v)*imag(v)
				count++
			}
		}
	}
	if count > 0 {
		p.noisePower = power / float64(count)
	}
	return p, nil
}

// shrinkCovariance blends a normalized covariance toward identity in place:
// ρ ← (1−s)·ρ + s·I.
func shrinkCovariance(cov *cmat.Matrix, s float64) {
	if s <= 0 {
		return
	}
	if s > 1 {
		s = 1
	}
	cov.Scale(complex(1-s, 0))
	cov.AddScaledIdentity(complex(s, 0))
}

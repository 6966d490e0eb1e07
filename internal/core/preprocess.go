package core

import (
	"fmt"
	"math"
	"runtime"

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
//
// Every channel — each noise-only channel, each reference channel, each
// background-subtracted (beep, mic) channel — is filtered and converted
// independently, so each channel is one parallel task, the long
// noise-only channels queued first. The sums that cross channels
// (reference energy, noise power, covariance) run on the calling goroutine
// after the tasks finish, in channel order, so the result is bit-identical
// for any worker count. With CovShrinkage ≥ 1 the covariance estimate
// would be replaced by I wholesale, so it is not computed.
func preprocess(cfg Config, cap *Capture, noiseOnly [][]float64) (*preprocessed, error) {
	mics, samples, err := cap.Validate()
	if err != nil {
		return nil, err
	}
	filter, err := dsp.ButterworthBandpass(cfg.FilterOrder, cfg.BandLowHz, cfg.BandHighHz, cap.SampleRate)
	if err != nil {
		return nil, fmt.Errorf("core: design bandpass: %w", err)
	}
	if noiseOnly != nil && len(noiseOnly) != mics {
		return nil, fmt.Errorf("core: noise capture has %d channels, want %d", len(noiseOnly), mics)
	}
	for m, ch := range noiseOnly {
		if len(ch) == 0 || len(ch) != len(noiseOnly[0]) {
			return nil, fmt.Errorf("core: noise mic %d has %d samples; mics need equal non-zero lengths (mic 0 has %d)", m, len(ch), len(noiseOnly[0]))
		}
	}

	fe := &frontEnd{
		cfg:       cfg,
		cap:       cap,
		filter:    filter,
		noiseOnly: noiseOnly,
		noise:     make([][]complex128, len(noiseOnly)),
		ref:       make([][]complex128, len(cap.Reference)),
		analytic:  make([][][]complex128, len(cap.Beeps)),
		mics:      mics,
		directIdx: -1,
	}
	for l := range fe.analytic {
		fe.analytic[l] = make([][]complex128, mics)
	}
	// Each worker owns one set of channel scratch buffers for the whole
	// call. Channel tasks cannot fail (shapes were validated above).
	scratch := make([]channelScratch, runtime.GOMAXPROCS(0))
	_ = parallel(fe.tasks(), func(w, i int) error {
		fe.do(i, &scratch[w])
		return nil
	})

	p := &preprocessed{
		analytic:     fe.analytic,
		samples:      samples,
		mics:         mics,
		refDirectIdx: fe.directIdx,
	}
	if cfg.CovShrinkage >= 1 {
		// Full shrinkage, (1−s)·ρ + s·I, is I whatever ρ is.
		p.noiseCov = cmat.Identity(mics)
	}
	if cap.Reference != nil {
		// The reference carries the direct path; its arrival and level
		// calibrate ranging and the images.
		lo := p.refDirectIdx
		hi := lo + int(cfg.Chirp.Duration*cap.SampleRate)
		var energy float64
		var count int
		for _, a := range fe.ref {
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

	if noiseOnly != nil {
		chans := fe.noise
		if p.noiseCov == nil {
			cov, err := beamform.EstimateCovariance(chans, 0, len(chans[0]), cfg.CovLoading)
			if err != nil {
				return nil, fmt.Errorf("core: noise covariance: %w", err)
			}
			shrinkCovariance(cov, cfg.CovShrinkage)
			p.noiseCov = cov
		}
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
	if p.noiseCov == nil {
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
	}
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

// frontEnd is one preprocess call's channel work: the inputs, and one
// output slot per task. Task indices run over the noise-only channels
// first (each several times longer than a beep channel), then the
// reference channels, then every (beep, mic) channel; each task writes
// only its own slot.
type frontEnd struct {
	cfg       Config
	cap       *Capture
	filter    *dsp.SOSFilter
	noiseOnly [][]float64
	mics      int

	noise    [][]complex128   // [mic] analytic noise-only channels
	ref      [][]complex128   // [mic] analytic reference channels
	analytic [][][]complex128 // [beep][mic] analytic beep channels
	// directIdx is the direct-path arrival on reference mic 0, written by
	// that channel's task.
	directIdx int
}

func (fe *frontEnd) tasks() int {
	return len(fe.noise) + len(fe.ref) + len(fe.analytic)*fe.mics
}

// channelScratch is one worker's reusable channel buffers: sub holds a
// background-subtracted beep channel and filt a bandpassed channel. Only
// the analytic signal outlives a task, so each task may overwrite both.
type channelScratch struct {
	sub, filt []float64
}

// do runs task i using the worker's scratch buffers, growing them as
// needed.
func (fe *frontEnd) do(i int, sc *channelScratch) {
	if i < len(fe.noise) {
		sc.filt = fe.filter.FiltFilt(sc.filt, fe.noiseOnly[i])
		fe.noise[i] = dsp.AnalyticSignal(sc.filt)
		return
	}
	i -= len(fe.noise)
	if i < len(fe.ref) {
		sc.filt = fe.filter.FiltFilt(sc.filt, fe.cap.Reference[i])
		fe.ref[i] = dsp.AnalyticSignal(sc.filt)
		if i == 0 {
			env := dsp.Envelope(chirpFilterPlan(fe.cfg.Chirp).MatchedFilter(sc.filt))
			fe.directIdx = dsp.ArgMax(env)
		}
		return
	}
	i -= len(fe.ref)
	l, m := i/fe.mics, i%fe.mics
	src := fe.cap.Beeps[l][m]
	if fe.cap.Reference != nil {
		// Background subtraction: cancel the static empty-scene response
		// (direct path, walls, furniture).
		ref := fe.cap.Reference[m]
		n := len(src)
		if len(ref) < n {
			n = len(ref)
		}
		sc.sub = append(sc.sub[:0], src...)
		for t := 0; t < n; t++ {
			sc.sub[t] -= ref[t]
		}
		src = sc.sub
	}
	sc.filt = fe.filter.FiltFilt(sc.filt, src)
	fe.analytic[l][m] = dsp.AnalyticSignal(sc.filt)
}

// shrinkCovariance blends a normalized covariance toward identity in place:
// ρ ← (1−s)·ρ + s·I, for s < 1 (preprocess builds I itself for s ≥ 1).
func shrinkCovariance(cov *cmat.Matrix, s float64) {
	if s <= 0 {
		return
	}
	cov.Scale(complex(1-s, 0))
	cov.AddScaledIdentity(complex(s, 0))
}

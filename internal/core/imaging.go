package core

import (
	"context"
	"fmt"
	"math"
	"sync"

	"echoimage/internal/aimage"
	"echoimage/internal/array"
	"echoimage/internal/beamform"
)

// AcousticImage couples the pixel grid with the imaging geometry it was
// rendered at, which the inverse-square augmentation needs.
type AcousticImage struct {
	// Image is the full-band acoustic image (the paper's AI_l).
	*aimage.Image
	// Bands holds optional sub-band images (same grid, one per imaging
	// sub-band). Scatterer interference is frequency-dependent, so the
	// sub-band stack carries user-specific spectral structure the
	// full-band energy image averages away.
	Bands []*aimage.Image
	// PlaneDistM is D_p, the imaging plane's distance from the array.
	PlaneDistM float64
	// GridSpacingM is the grid edge length.
	GridSpacingM float64
	// PlaneCenterZM is the plane's vertical center.
	PlaneCenterZM float64
}

// GridCenter returns the plane coordinates {x_k, D_p, z_k} of the grid at
// image row r, column c. Row 0 is the top of the image (largest z).
func (ai *AcousticImage) GridCenter(r, c int) array.Vec3 {
	x := (float64(c) - float64(ai.Cols-1)/2) * ai.GridSpacingM
	z := (float64(ai.Rows-1)/2-float64(r))*ai.GridSpacingM + ai.PlaneCenterZM
	return array.Vec3{X: x, Y: ai.PlaneDistM, Z: z}
}

// ImagingPlan precomputes everything about one (grid geometry, noise
// covariance, plane distance) triple that is invariant across the L beeps
// of a capture: the per-pixel steering directions, the conjugated MVDR
// weight vectors, their squared norms ‖w‖² (for noise-floor subtraction),
// the segment sample windows around each grid's expected round-trip
// delay, and the span [start, end) those windows cover. Rendering a beep
// through a plan therefore performs only the energy integration, as one
// windowed quadratic form per pixel (see render) — the K weight solves
// happen once instead of K·L times.
//
// A plan is immutable after construction and safe for concurrent use.
type ImagingPlan struct {
	cfg         Config
	fs          float64
	samples     int
	mics        int
	rows, cols  int
	planeDist   float64
	emissionSec float64

	dirs        []array.Direction
	weightsConj [][]complex128
	wNormSq     []float64
	lo, hi      []int
	// start is the smallest lo and end the largest hi over the non-empty
	// windows (both 0 when every window is empty).
	start, end int
}

// NewImagingPlan solves the MVDR weights and segment windows for every
// pixel of cfg's grid, steering the given beamformer. fs and samples
// describe the beep windows the plan will render; planeDist is D_p and
// emissionSec the beep emission time within each window. Cancelling ctx
// abandons the build between grid rows.
func NewImagingPlan(ctx context.Context, cfg Config, bf *beamform.Beamformer, fs float64, samples int, planeDist, emissionSec float64) (*ImagingPlan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if bf == nil {
		return nil, fmt.Errorf("core: nil beamformer")
	}
	return buildImagingPlan(ctx, cfg, bf.WeightsFor, fs, samples, planeDist, emissionSec)
}

// buildImagingPlan solves the weights of each grid row via solve, one row
// per parallel task. The first solver error stops the build; cancelling
// ctx abandons it between rows. Either way the partial plan is discarded
// and the error returned.
func buildImagingPlan(ctx context.Context, cfg Config, solve func(array.Direction) ([]complex128, error), fs float64, samples int, planeDist, emissionSec float64) (*ImagingPlan, error) {
	if planeDist <= 0 {
		return nil, fmt.Errorf("core: plane distance %g <= 0", planeDist)
	}
	if fs <= 0 {
		return nil, fmt.Errorf("core: sample rate %g <= 0", fs)
	}
	if samples < 1 {
		return nil, fmt.Errorf("core: plan over %d samples", samples)
	}
	guard := int(cfg.SegmentGuardSec * fs)
	if guard < 1 {
		guard = 1
	}
	k := cfg.GridRows * cfg.GridCols
	p := &ImagingPlan{
		cfg:         cfg,
		fs:          fs,
		samples:     samples,
		rows:        cfg.GridRows,
		cols:        cfg.GridCols,
		planeDist:   planeDist,
		emissionSec: emissionSec,
		dirs:        make([]array.Direction, k),
		weightsConj: make([][]complex128, k),
		wNormSq:     make([]float64, k),
		lo:          make([]int, k),
		hi:          make([]int, k),
	}

	err := parallel(p.rows, func(_, r int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return p.planRow(solve, r, guard)
	})
	if err != nil {
		return nil, err
	}
	p.mics = len(p.weightsConj[0])
	p.start, p.end = p.samples, 0
	for k, lo := range p.lo {
		if lo < p.hi[k] {
			p.start = min(p.start, lo)
			p.end = max(p.end, p.hi[k])
		}
	}
	if p.start >= p.end {
		p.start, p.end = 0, 0
	}
	return p, nil
}

// planRow solves one grid row: direction, MVDR weights and segment window
// for each pixel.
func (p *ImagingPlan) planRow(solve func(array.Direction) ([]complex128, error), r, guard int) error {
	for c := 0; c < p.cols; c++ {
		k := r*p.cols + c
		center := p.gridCenter(r, c)
		dk := center.Norm()
		// Ω_k = {θ_k, φ_k} from Eq. 11–12: arccos(x/√(x²+D_p²)) and
		// arccos(z/D_k). DirectionTo produces the identical angles via
		// atan2/acos.
		dir := array.DirectionTo(center)
		w, err := solve(dir)
		if err != nil {
			return err
		}
		// The solver returns a fresh vector; conjugate it in place.
		var w2 float64
		for m, wm := range w {
			w[m] = complex(real(wm), -imag(wm))
			w2 += real(wm)*real(wm) + imag(wm)*imag(wm)
		}
		wc := w
		// Segment around the expected round trip 2·D_k/c (±d′).
		centerIdx := int((p.emissionSec + 2*dk/array.SpeedOfSound) * p.fs)
		lo := centerIdx - guard
		hi := centerIdx + guard
		if lo < 0 {
			lo = 0
		}
		if hi > p.samples {
			hi = p.samples
		}
		p.dirs[k] = dir
		p.weightsConj[k] = wc
		p.wNormSq[k] = w2
		p.lo[k] = lo
		p.hi[k] = hi
	}
	return nil
}

// gridCenter mirrors AcousticImage.GridCenter for the plan's geometry.
func (p *ImagingPlan) gridCenter(r, c int) array.Vec3 {
	x := (float64(c) - float64(p.cols-1)/2) * p.cfg.GridSpacingM
	z := (float64(p.rows-1)/2-float64(r))*p.cfg.GridSpacingM + p.cfg.PlaneCenterZM
	return array.Vec3{X: x, Y: p.planeDist, Z: z}
}

// Direction returns the precomputed steering direction of the pixel at
// image row r, column c.
func (p *ImagingPlan) Direction(r, c int) array.Direction { return p.dirs[r*p.cols+c] }

// newImage allocates an image carrying the plan's geometry.
func (p *ImagingPlan) newImage() *AcousticImage {
	return &AcousticImage{
		Image:         aimage.New(p.rows, p.cols),
		PlaneDistM:    p.planeDist,
		GridSpacingM:  p.cfg.GridSpacingM,
		PlaneCenterZM: p.cfg.PlaneCenterZM,
	}
}

// validateChans checks an analytic capture window against the plan.
func (p *ImagingPlan) validateChans(chans [][]complex128) error {
	if len(chans) != p.mics {
		return fmt.Errorf("core: plan built for %d mics, got %d channels", p.mics, len(chans))
	}
	for m, ch := range chans {
		if len(ch) != p.samples {
			return fmt.Errorf("core: plan built for %d samples, channel %d has %d", p.samples, m, len(ch))
		}
	}
	return nil
}

// Render images one beep's analytic channels through the plan on the
// calling goroutine. refRMS calibrates pixel values against the
// direct-path level (pass 0 to measure it from chans); noisePower is
// subtracted from each pixel as the expected beamformed noise energy.
func (p *ImagingPlan) Render(chans [][]complex128, refRMS, noisePower float64) (*AcousticImage, error) {
	if err := p.validateChans(chans); err != nil {
		return nil, err
	}
	ai := p.newImage()
	p.render(chans, ai, noisePower)
	p.normalize(chans, ai, refRMS)
	return ai, nil
}

// prefixBufs recycles render's prefix-sum buffers across beeps, plans and
// goroutines; each render holds its own buffer while it runs.
var prefixBufs = sync.Pool{New: func() any { return new([]float64) }}

// render sets every pixel of ai to the energy of wᴴ·x(t) over the pixel's
// segment window [lo, hi), minus the expected beamformed noise floor,
// clamped at 0 and square-rooted. With the weights solved at plan time it
// is pure arithmetic and cannot fail.
//
// The energy Σ_t |wᴴx(t)|² equals the quadratic form wᴴRw with
// R = Σ_t x(t)x(t)ᴴ over the window. render builds prefix sums P(t) of
// the M² distinct real values of x(t)x(t)ᴴ (the M powers |x_i|², then the
// real and imaginary parts of x_i·conj(x_j) for i < j) over the plan's
// span [start, end), which starts at the smallest lo rather than at
// sample 0, so the direct path's energy never enters them. Each pixel
// then takes R = P(hi) − P(lo) and one Hermitian M × M quadratic form: a
// pixel costs O(M²) however long its window, instead of M complex
// multiply-adds per sample.
func (p *ImagingPlan) render(chans [][]complex128, ai *AcousticImage, noisePower float64) {
	m := p.mics
	n := m * m
	need := (p.end - p.start + 1) * n
	buf := prefixBufs.Get().(*[]float64)
	if cap(*buf) < need {
		*buf = make([]float64, need)
	}
	pre := (*buf)[:need]
	clear(pre[:n])
	for t := p.start; t < p.end; t++ {
		prev := pre[(t-p.start)*n:][:n]
		cur := pre[(t-p.start+1)*n:][:n]
		for i := 0; i < m; i++ {
			x := chans[i][t]
			cur[i] = prev[i] + real(x)*real(x) + imag(x)*imag(x)
		}
		k := m
		for i := 0; i < m; i++ {
			xi := chans[i][t]
			for j := i + 1; j < m; j++ {
				xj := chans[j][t]
				cur[k] = prev[k] + real(xi)*real(xj) + imag(xi)*imag(xj)
				cur[k+1] = prev[k+1] + imag(xi)*real(xj) - real(xi)*imag(xj)
				k += 2
			}
		}
	}
	for px, wc := range p.weightsConj {
		lo, hi := p.lo[px], p.hi[px]
		var energy float64
		if lo < hi {
			a := pre[(lo-p.start)*n:][:n]
			b := pre[(hi-p.start)*n:][:n]
			for i, w := range wc {
				energy += (real(w)*real(w) + imag(w)*imag(w)) * (b[i] - a[i])
			}
			// Each i < j pair and its mirror add 2·Re(c·R_ij), with
			// c = conj(w_i)·w_j.
			var cross float64
			k := m
			for i, wi := range wc {
				for _, wj := range wc[i+1:] {
					cr := real(wi)*real(wj) + imag(wi)*imag(wj)
					ci := imag(wi)*real(wj) - real(wi)*imag(wj)
					cross += cr*(b[k]-a[k]) - ci*(b[k+1]-a[k+1])
					k += 2
				}
			}
			energy += 2 * cross
			// Noise-floor subtraction: remove the expected beamformed
			// noise energy (spatially white noise passes with gain ‖w‖²)
			// so interference raises pixel variance, not pixel bias.
			energy -= noisePower * p.wNormSq[px] * float64(hi-lo)
			if energy < 0 {
				energy = 0
			}
		}
		ai.Pix[px] = math.Sqrt(energy)
	}
	prefixBufs.Put(buf)
}

// normalize calibrates pixel values against the direct-path RMS.
func (p *ImagingPlan) normalize(chans [][]complex128, ai *AcousticImage, refRMS float64) {
	ref := refRMS
	if ref <= 0 {
		ref = directPathReference(p.fs, p.cfg, chans, p.emissionSec)
	}
	if ref > 0 {
		inv := 1 / ref
		for i := range ai.Pix {
			ai.Pix[i] *= inv
		}
	}
}

// constructAll images every beep of a capture at plane distance planeDist
// (normally the ranging output D_p). emissionSec is the beep emission time
// within each window (from DistanceEstimate.EmissionSec); pass 0 when the
// capture windows start exactly at emission. noiseOnly may be nil.
//
// The full-band pass reuses pre, the already preprocessed full-band
// capture, when the caller — ProcessRecordedContext after ranging —
// provides it; the optional sub-band passes always preprocess with their
// own filters. Cancelling ctx abandons the construction between bands and
// between beep renders.
func (s *System) constructAll(ctx context.Context, cap *Capture, planeDist, emissionSec float64, noiseOnly [][]float64, pre *preprocessed) ([]*AcousticImage, error) {
	if planeDist <= 0 {
		return nil, fmt.Errorf("core: plane distance %g <= 0", planeDist)
	}
	out, err := s.constructBand(ctx, cap, s.cfg, planeDist, emissionSec, noiseOnly, nil, pre)
	if err != nil {
		return nil, err
	}
	n := s.cfg.ImagingSubBands
	if n <= 1 {
		return out, nil
	}
	for b := 0; b < n; b++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if _, err := s.constructBand(ctx, cap, subBandConfig(s.cfg, b), planeDist, emissionSec, noiseOnly, out, nil); err != nil {
			return nil, fmt.Errorf("core: sub-band %d: %w", b, err)
		}
	}
	return out, nil
}

// subBandConfig is cfg narrowed to imaging sub-band b of
// cfg.ImagingSubBands equal slices of the band.
func subBandConfig(cfg Config, b int) Config {
	width := (cfg.BandHighHz - cfg.BandLowHz) / float64(cfg.ImagingSubBands)
	sub := cfg
	sub.BandLowHz = cfg.BandLowHz + float64(b)*width
	sub.BandHighHz = sub.BandLowHz + width
	// Narrow sub-bands need a gentler filter to stay numerically stable.
	if sub.FilterOrder > 2 {
		sub.FilterOrder = 2
	}
	return sub
}

// constructBand images every beep within one frequency band. The band's
// imaging plan is built once and shared across all beeps, and each beep's
// render is one parallel task. When attach is nil a fresh image slice is
// returned; otherwise the band images are appended to attach[l].Bands.
// Cancelling ctx stops the renders between tasks; in-flight beeps finish
// (render is pure arithmetic) and ctx's error is returned.
func (s *System) constructBand(ctx context.Context, cap *Capture, cfg Config, planeDist, emissionSec float64, noiseOnly [][]float64, attach []*AcousticImage, pre *preprocessed) ([]*AcousticImage, error) {
	p := pre
	if p == nil {
		var err error
		p, err = preprocess(cfg, cap, noiseOnly)
		if err != nil {
			return nil, err
		}
	}
	bf, err := beamform.New(s.arr, p.noiseCov, cfg.CenterFreqHz())
	if err != nil {
		return nil, err
	}
	plan, err := buildImagingPlan(ctx, cfg, bf.WeightsFor, cap.SampleRate, p.samples, planeDist, emissionSec)
	if err != nil {
		return nil, err
	}

	beeps := len(p.analytic)
	imgs := make([]*AcousticImage, beeps)
	for l := range imgs {
		imgs[l] = plan.newImage()
	}
	err = parallel(beeps, func(_, l int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		plan.render(p.analytic[l], imgs[l], p.noisePower)
		plan.normalize(p.analytic[l], imgs[l], p.refRMS)
		return nil
	})
	if err != nil {
		return nil, err
	}

	if attach != nil {
		for l := range attach {
			attach[l].Bands = append(attach[l].Bands, imgs[l].Image)
		}
		return attach, nil
	}
	return imgs, nil
}

// directPathReference measures the RMS of the analytic channels over the
// direct-path chirp period. Dividing pixel values by it calibrates images
// against speaker volume and microphone gain while preserving the user's
// absolute echo strength — a discriminative, session-stable trait (body
// size and clothing reflectivity).
func directPathReference(fs float64, cfg Config, chans [][]complex128, emissionSec float64) float64 {
	lo := int((emissionSec + cfg.SpeakerMicDistM/array.SpeedOfSound) * fs)
	hi := lo + int(cfg.Chirp.Duration*fs)
	n := len(chans[0])
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	if lo >= hi {
		return 0
	}
	var energy float64
	for _, ch := range chans {
		for t := lo; t < hi; t++ {
			re, imv := real(ch[t]), imag(ch[t])
			energy += re*re + imv*imv
		}
	}
	return math.Sqrt(energy / float64(len(chans)*(hi-lo)))
}

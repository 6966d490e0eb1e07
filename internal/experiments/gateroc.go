package experiments

import (
	"context"
	"fmt"
	"io"

	"echoimage/internal/core"
	"echoimage/internal/metrics"
)

// GateROCResult characterizes the spoofer gate as a detector: the ROC of
// the SVDD acceptance score over genuine (registered users' test images)
// versus impostor (spoofers') samples. The paper reports a single operating
// point (Fig. 11); the EER and AUC summarize the whole trade-off curve.
type GateROCResult struct {
	EER          float64
	EERThreshold float64
	AUC          float64
	GenuineN     int
	ImpostorN    int
}

// GateROC runs the Figure 11 protocol and scores every sample with the
// gate's margin instead of thresholding it.
func GateROC(ctx context.Context, s Scale) (*GateROCResult, error) {
	sys, err := s.NewSystem()
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
	auth, err := core.TrainAuthenticator(ctx, core.DefaultAuthConfig(), enrollment)
	if err != nil {
		return nil, fmt.Errorf("experiments: gate ROC training: %w", err)
	}

	var genuine, impostor []float64
	for _, p := range registered {
		imgs, err := testUser(ctx, sys, p, cond, distance, s)
		if err != nil {
			return nil, err
		}
		for _, img := range imgs {
			genuine = append(genuine, auth.Authenticate(img).GateScore)
		}
	}
	for _, p := range spoofers {
		imgs, err := spooferImages(ctx, sys, p, cond, distance, s)
		if err != nil {
			return nil, err
		}
		for _, img := range imgs {
			impostor = append(impostor, auth.Authenticate(img).GateScore)
		}
	}

	eer, th, err := metrics.EER(genuine, impostor)
	if err != nil {
		return nil, err
	}
	auc, err := metrics.AUC(genuine, impostor)
	if err != nil {
		return nil, err
	}
	return &GateROCResult{
		EER:          eer,
		EERThreshold: th,
		AUC:          auc,
		GenuineN:     len(genuine),
		ImpostorN:    len(impostor),
	}, nil
}

// Write renders the result.
func (r *GateROCResult) Write(w io.Writer) {
	fmt.Fprintln(w, "Gate ROC (extension) — SVDD score as a continuous detector")
	fmt.Fprintf(w, "EER: %.4f at score threshold %.4f\n", r.EER, r.EERThreshold)
	fmt.Fprintf(w, "AUC: %.4f (genuine n=%d, impostor n=%d)\n", r.AUC, r.GenuineN, r.ImpostorN)
}

package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"echoimage/internal/array"
	"echoimage/internal/body"
	"echoimage/internal/chirp"
	"echoimage/internal/core"
	"echoimage/internal/sim"
)

// ReplayAttackResult is the extension experiment motivated by the paper's
// introduction: a replay attacker places a loudspeaker where the user
// stands and plays the user's recorded voice. The speech channel is fooled;
// the acoustic-imaging channel should not be, because a loudspeaker's echo
// signature (a small rigid panel) is nothing like a human body's.
type ReplayAttackResult struct {
	// LegitAcceptance is the fraction of legitimate user images accepted.
	LegitAcceptance float64
	// ReplayRejection is the fraction of loudspeaker-prop images rejected.
	ReplayRejection float64
	LegitSamples    int
	ReplaySamples   int
}

// ReplayAttack enrolls Registered users in the quiet lab, then presents a
// loudspeaker prop at the enrollment spot (several placements and heights,
// as an attacker would try).
func ReplayAttack(ctx context.Context, s Scale) (*ReplayAttackResult, error) {
	sys, err := s.NewSystem()
	if err != nil {
		return nil, err
	}
	const distance = 0.7
	cond := QuietLab()
	registered, _ := rosterSplit(minInt(s.Registered, 4), 0)

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
		return nil, fmt.Errorf("experiments: replay training: %w", err)
	}

	res := &ReplayAttackResult{}
	accepted := 0
	for _, p := range registered {
		imgs, err := testUser(ctx, sys, p, cond, distance, s)
		if err != nil {
			return nil, err
		}
		for _, img := range imgs {
			res.LegitSamples++
			if r := auth.Authenticate(img); r.Accepted && r.UserID == p.ID {
				accepted++
			}
		}
	}
	if res.LegitSamples > 0 {
		res.LegitAcceptance = float64(accepted) / float64(res.LegitSamples)
	}

	spec, err := cond.Env.Spec()
	if err != nil {
		return nil, err
	}
	noise, err := spec.NoiseSources(cond.Noise, 0)
	if err != nil {
		return nil, err
	}
	rejected := 0
	for attempt := 0; attempt < 6; attempt++ {
		rng := rand.New(rand.NewSource(int64(5000 + attempt)))
		d := distance + (rng.Float64()*2-1)*0.05
		height := 0.2 + rng.Float64()*0.4 // speaker on a stand near chest height

		scene := sim.NewScene(array.ReSpeaker())
		scene.Reflectors = spec.Clutter
		scene.Body = body.LoudspeakerProp(d, height)
		scene.Noise = noise
		scene.Reverb = spec.Reverb
		train := chirp.Train{Chirp: chirp.Default(), IntervalSec: 0.5, Count: maxInt(3, s.TestBeepsS3/2)}
		recs, err := scene.Capture(train, int64(6000+attempt))
		if err != nil {
			return nil, fmt.Errorf("experiments: replay capture: %w", err)
		}
		noiseOnly, err := scene.CaptureNoiseFor(int64(7000+attempt), 0.5)
		if err != nil {
			return nil, err
		}
		reference, err := scene.CaptureReference(train.Chirp, int64(8000+attempt))
		if err != nil {
			return nil, err
		}
		cap := &core.Capture{Beeps: recs, SampleRate: scene.Config.SampleRate, Reference: reference}
		procRes, err := sys.ProcessRecordedContext(ctx, cap, noiseOnly, nil)
		if err != nil {
			// Nothing rangeable where a body should be: the attempt fails
			// outright, which counts as rejection.
			res.ReplaySamples += train.Count
			rejected += train.Count
			continue
		}
		for _, img := range procRes.Images {
			res.ReplaySamples++
			if r := auth.Authenticate(img); !r.Accepted {
				rejected++
			}
		}
	}
	if res.ReplaySamples > 0 {
		res.ReplayRejection = float64(rejected) / float64(res.ReplaySamples)
	}
	return res, nil
}

// Write renders the result.
func (r *ReplayAttackResult) Write(w io.Writer) {
	fmt.Fprintln(w, "Replay attack (extension) — loudspeaker prop at the user's spot")
	fmt.Fprintf(w, "legitimate acceptance: %.4f (n=%d)\n", r.LegitAcceptance, r.LegitSamples)
	fmt.Fprintf(w, "replay rejection:      %.4f (n=%d)\n", r.ReplayRejection, r.ReplaySamples)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

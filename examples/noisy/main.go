// Noisy: the paper's Figure 12 story in miniature — a user enrolled in a
// quiet room authenticates while music, chatter or traffic noise plays.
// The 2–3 kHz bandpass and beamforming keep the system usable because
// everyday noise concentrates below 2 kHz.
package main

import (
	"context"
	"fmt"
	"log"

	"echoimage"
)

func main() {
	ctx := context.Background()
	cfg := echoimage.DefaultConfig()
	cfg.GridRows, cfg.GridCols = 36, 36
	cfg.GridSpacingM = 0.05
	sys, err := echoimage.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}

	const userID = 4
	fmt.Printf("enrolling user %d in a quiet laboratory...\n", userID)
	var pool []*echoimage.AcousticImage
	for placement := 0; placement < 4; placement++ {
		imgs, err := echoimage.SimulateImages(ctx, sys, echoimage.SimulateSpec{
			UserID:    userID,
			DistanceM: 0.7,
			Beeps:     6,
			Session:   1,
			Env:       echoimage.EnvLab,
			Noise:     echoimage.NoiseQuiet,
			Seed:      int64(placement),
		})
		if err != nil {
			log.Fatal(err)
		}
		pool = append(pool, imgs...)
	}
	auth, err := echoimage.Train(ctx, echoimage.DefaultAuthConfig(), map[int][]*echoimage.AcousticImage{
		userID: pool,
	})
	if err != nil {
		log.Fatal(err)
	}

	conditions := []struct {
		name  string
		env   echoimage.Environment
		noise echoimage.NoiseCondition
	}{
		{"lab, quiet", echoimage.EnvLab, echoimage.NoiseQuiet},
		{"lab, music @50dB", echoimage.EnvLab, echoimage.NoiseMusic},
		{"lab, chatting @50dB", echoimage.EnvLab, echoimage.NoiseChatter},
		{"lab, traffic @50dB", echoimage.EnvLab, echoimage.NoiseTraffic},
	}
	fmt.Println("authenticating the returning user under noise:")
	for _, c := range conditions {
		imgs, err := echoimage.SimulateImages(ctx, sys, echoimage.SimulateSpec{
			UserID:       userID,
			DistanceM:    0.7,
			Beeps:        5,
			Session:      3,
			Env:          c.env,
			Noise:        c.noise,
			NoiseLevelDB: 50,
			Seed:         99,
		})
		if err != nil {
			fmt.Printf("  %-22s capture failed: %v\n", c.name, err)
			continue
		}
		d, err := auth.AuthenticateMajorityRecorded(imgs, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-22s accepted=%v (gate score %.3f)\n", c.name, d.Accepted, d.GateScore)
	}
}

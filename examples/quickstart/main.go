// Quickstart: enroll one user on a simulated smart speaker, authenticate a
// fresh capture of the same user, and reject an impostor — the paper's
// single-user scenario (§V-E), where the SVDD gate alone decides.
package main

import (
	"context"
	"fmt"
	"log"

	"echoimage"
)

func main() {
	ctx := context.Background()
	// A small imaging grid keeps the example interactive; the physics and
	// pipeline are identical to the full-scale configuration.
	cfg := echoimage.DefaultConfig()
	cfg.GridRows, cfg.GridCols = 36, 36
	cfg.GridSpacingM = 0.05
	sys, err := echoimage.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Enrollment: user 1 stands 0.7 m in front of the speaker; the device
	// emits beeps and images the echoes. Several short placements mimic a
	// realistic registration session.
	fmt.Println("enrolling user 3...")
	var enrollImgs []*echoimage.AcousticImage
	for placement := 0; placement < 4; placement++ {
		imgs, err := echoimage.SimulateImages(ctx, sys, echoimage.SimulateSpec{
			UserID:    3,
			DistanceM: 0.7,
			Beeps:     6,
			Session:   1,
			Seed:      int64(3000 + placement),
		})
		if err != nil {
			log.Fatal(err)
		}
		enrollImgs = append(enrollImgs, imgs...)
	}
	fmt.Printf("collected %d acoustic images (plane at %.2f m)\n",
		len(enrollImgs), enrollImgs[0].PlaneDistM)

	auth, err := echoimage.Train(ctx, echoimage.DefaultAuthConfig(), map[int][]*echoimage.AcousticImage{
		3: enrollImgs,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Authentication: the same user returns days later (session 3).
	legit, err := echoimage.SimulateImages(ctx, sys, echoimage.SimulateSpec{
		UserID: 3, DistanceM: 0.7, Beeps: 5, Session: 3, Seed: 99,
	})
	if err != nil {
		log.Fatal(err)
	}
	decision, err := auth.AuthenticateMajorityRecorded(legit, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("returning user 3:  accepted=%v (gate score %.3f)\n",
		decision.Accepted, decision.GateScore)

	// An impostor (roster user 15, never enrolled) tries the same spot.
	spoof, err := echoimage.SimulateImages(ctx, sys, echoimage.SimulateSpec{
		UserID: 15, DistanceM: 0.7, Beeps: 5, Session: 3, Seed: 43,
	})
	if err != nil {
		log.Fatal(err)
	}
	decision, err = auth.AuthenticateMajorityRecorded(spoof, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("impostor user 15:  accepted=%v (gate score %.3f)\n",
		decision.Accepted, decision.GateScore)
}

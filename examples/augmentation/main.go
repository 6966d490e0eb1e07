// Augmentation: the paper's §V-F data augmentation — enrollment images are
// captured at one distance, then synthesized at other distances with the
// inverse-square transform (Eq. 13–15) so a user authenticating from a new
// spot still finds matching training data.
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
	fmt.Printf("enrolling user %d at 0.7 m only...\n", userID)
	var pool []*echoimage.AcousticImage
	for placement := 0; placement < 4; placement++ {
		imgs, err := echoimage.SimulateImages(ctx, sys, echoimage.SimulateSpec{
			UserID: userID, DistanceM: 0.7, Beeps: 6, Session: 1, Seed: int64(placement),
		})
		if err != nil {
			log.Fatal(err)
		}
		pool = append(pool, imgs...)
	}
	fmt.Printf("captured %d real images at plane %.2f m\n", len(pool), pool[0].PlaneDistM)

	// Synthesize training images at other distances (Eq. 15: P' =
	// (D_k/D'_k)² · P).
	distances := []float64{0.9, 1.1, 1.3}
	augmented := append([]*echoimage.AcousticImage{}, pool...)
	for _, img := range pool {
		for _, d := range distances {
			synth, err := echoimage.Augment(img, d)
			if err != nil {
				log.Fatal(err)
			}
			augmented = append(augmented, synth)
		}
	}
	fmt.Printf("augmented to %d images spanning planes 0.7–1.3 m\n\n", len(augmented))

	plain, err := echoimage.Train(ctx, echoimage.DefaultAuthConfig(), map[int][]*echoimage.AcousticImage{userID: pool})
	if err != nil {
		log.Fatal(err)
	}
	boosted, err := echoimage.Train(ctx, echoimage.DefaultAuthConfig(), map[int][]*echoimage.AcousticImage{userID: augmented})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plain model bins:     %v\n", plain.Bins())
	fmt.Printf("augmented model bins: %v\n\n", boosted.Bins())

	fmt.Println("the user returns and stands farther away:")
	fmt.Println("(expect rejections to start past the enrollment distance: the")
	fmt.Println(" reproduction finds that Eq. 15 augmentation cannot bridge the")
	fmt.Println(" angular geometry change — see EXPERIMENTS.md, Figure 14)")
	for _, d := range []float64{0.7, 0.9, 1.1} {
		imgs, err := echoimage.SimulateImages(ctx, sys, echoimage.SimulateSpec{
			UserID: userID, DistanceM: d, Beeps: 5, Session: 3, Seed: 55,
		})
		if err != nil {
			fmt.Printf("  at %.1f m: capture failed: %v\n", d, err)
			continue
		}
		dp, err := plain.AuthenticateMajorityRecorded(imgs, nil)
		if err != nil {
			log.Fatal(err)
		}
		db, err := boosted.AuthenticateMajorityRecorded(imgs, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  at %.1f m: plain accepted=%v, augmented accepted=%v\n", d, dp.Accepted, db.Accepted)
	}
}

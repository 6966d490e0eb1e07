// Multiuser: the paper's Figure 11 scenario in miniature — several
// registered users share one smart speaker, spoofers must be rejected, and
// accepted users must be told apart (SVDD gate + n-class SVM, §V-E).
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

	registered := []int{3, 4, 7, 8}
	spoofers := []int{13, 14}

	fmt.Printf("enrolling users %v...\n", registered)
	enrollment := make(map[int][]*echoimage.AcousticImage, len(registered))
	for _, id := range registered {
		var pool []*echoimage.AcousticImage
		for placement := 0; placement < 4; placement++ {
			imgs, err := echoimage.SimulateImages(ctx, sys, echoimage.SimulateSpec{
				UserID:    id,
				DistanceM: 0.7,
				Beeps:     6,
				Session:   1,
				Seed:      int64(1000*id + placement),
			})
			if err != nil {
				log.Fatal(err)
			}
			pool = append(pool, imgs...)
		}
		enrollment[id] = pool
	}
	auth, err := echoimage.Train(ctx, echoimage.DefaultAuthConfig(), enrollment)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained on %d users, plane bins %v\n\n", len(auth.Users()), auth.Bins())

	attempt := func(id int, kind string) {
		imgs, err := echoimage.SimulateImages(ctx, sys, echoimage.SimulateSpec{
			UserID: id, DistanceM: 0.7, Beeps: 5, Session: 3, Seed: int64(7000 + id),
		})
		if err != nil {
			log.Fatal(err)
		}
		d, err := auth.AuthenticateMajorityRecorded(imgs, nil)
		if err != nil {
			log.Fatal(err)
		}
		switch {
		case d.Accepted && d.UserID == id:
			fmt.Printf("%s %2d → accepted as user %d  ✓\n", kind, id, d.UserID)
		case d.Accepted:
			fmt.Printf("%s %2d → accepted as user %d  ✗ (misidentified)\n", kind, id, d.UserID)
		default:
			fmt.Printf("%s %2d → rejected%s\n", kind, id, map[bool]string{true: "  ✓", false: "  ✗"}[kind == "spoofer"])
		}
	}
	for _, id := range registered {
		attempt(id, "user   ")
	}
	for _, id := range spoofers {
		attempt(id, "spoofer")
	}
}

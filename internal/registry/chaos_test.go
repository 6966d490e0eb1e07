package registry

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"echoimage/internal/aimage"
	"echoimage/internal/core"
	"echoimage/internal/features"
)

// chaosConfig mirrors the cheap frozen extractor used by the core
// identification tests: 16×16 images, 128 features, fast enough to train
// real models inside a unit test.
func chaosConfig() core.AuthConfig {
	cfg := core.DefaultAuthConfig()
	cfg.Features = features.Config{InputSize: 16, Channels: []int{4, 8}, Seed: 1}
	return cfg
}

func chaosImage(rng *rand.Rand, center []float64) *core.AcousticImage {
	im := aimage.New(16, 16)
	for i := range im.Pix {
		im.Pix[i] = center[i] + 0.3*rng.NormFloat64()
	}
	return &core.AcousticImage{Image: im, PlaneDistM: 0.7, GridSpacingM: 0.05}
}

// TestConcurrentAuthenticateDuringExtendSwap hammers Authenticate from
// reader goroutines while the registry repeatedly extends the live model
// with new users and swaps snapshots underneath them. Run under -race this
// is the safety proof for the immutable-snapshot index swap: readers keep
// using the authenticator they grabbed, writers clone-and-extend, and no
// memory is shared mutably across the swap.
func TestConcurrentAuthenticateDuringExtendSwap(t *testing.T) {
	r := New(chaosConfig(), Options{})
	defer r.Close()

	rng := rand.New(rand.NewSource(23))
	centers := map[int][]float64{}
	newUser := func(u int) {
		t.Helper()
		c := make([]float64, 16*16)
		for i := range c {
			c[i] = rng.NormFloat64()
		}
		centers[u] = c
		imgs := make([]*core.AcousticImage, 6)
		for i := range imgs {
			imgs[i] = chaosImage(rng, c)
		}
		if err := r.AddImages(u, imgs); err != nil {
			t.Fatal(err)
		}
	}

	const seedUsers = 3
	for u := 1; u <= seedUsers; u++ {
		newUser(u)
	}
	if err := r.Retrain(context.Background()); err != nil {
		t.Fatal(err)
	}
	base := r.Snapshot()
	if base.Info.IndexSize == 0 {
		t.Fatal("seed model indexes no embeddings")
	}
	if base.Info.Extended {
		t.Fatal("seed train reported as extension")
	}

	probes := make([]*core.AcousticImage, 0, seedUsers*2)
	probeUser := make([]int, 0, seedUsers*2)
	for u := 1; u <= seedUsers; u++ {
		for i := 0; i < 2; i++ {
			probes = append(probes, chaosImage(rng, centers[u]))
			probeUser = append(probeUser, u)
		}
	}

	done := make(chan struct{})
	var lookups atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				snap := r.Snapshot()
				p := i % len(probes)
				res := snap.Auth.Authenticate(probes[p])
				lookups.Add(1)
				if res.Accepted && res.UserID != probeUser[p] {
					t.Errorf("probe of user %d accepted as %d (model v%d)", probeUser[p], res.UserID, snap.Info.Version)
					return
				}
			}
		}(g)
	}

	// Writers: enroll users 4..8 one at a time, each triggering an
	// extend-and-swap while the readers churn.
	const addUsers = 5
	for u := seedUsers + 1; u <= seedUsers+addUsers; u++ {
		newUser(u)
		if err := r.Retrain(context.Background()); err != nil {
			t.Fatal(err)
		}
		snap := r.Snapshot()
		if !snap.Info.Extended {
			t.Errorf("enrolling user %d fell back to full retrain", u)
		}
		if got, want := len(snap.Auth.Users()), u; got != want {
			t.Errorf("after user %d: %d registered users", u, got)
		}
	}
	close(done)
	wg.Wait()

	final := r.Snapshot()
	if final.Info.IndexSize <= base.Info.IndexSize {
		t.Errorf("index did not grow: %d -> %d", base.Info.IndexSize, final.Info.IndexSize)
	}
	t.Logf("%d concurrent lookups across %d extend swaps (index %d -> %d vectors)",
		lookups.Load(), addUsers, base.Info.IndexSize, final.Info.IndexSize)
	if lookups.Load() == 0 {
		t.Error("readers performed no lookups")
	}
}

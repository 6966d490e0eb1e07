package core_test

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"math/rand"
	"testing"

	"echoimage/internal/aimage"
	"echoimage/internal/core"
	"echoimage/internal/features"
)

// cheapAuthConfig is a small frozen extractor (16→8→4, 128 features) so
// identification-engine tests can train dozens of users without the
// sensing pipeline.
func cheapAuthConfig() core.AuthConfig {
	cfg := core.DefaultAuthConfig()
	cfg.Features = features.Config{InputSize: 16, Channels: []int{4, 8}, Seed: 1}
	return cfg
}

// synthImage renders a synthetic acoustic image around a user's pixel
// template: identity is the template, session variation the jitter.
func synthImage(rng *rand.Rand, center []float64, jitter float64) *core.AcousticImage {
	im := aimage.New(16, 16)
	for i := range im.Pix {
		im.Pix[i] = center[i] + jitter*rng.NormFloat64()
	}
	return &core.AcousticImage{Image: im, PlaneDistM: 0.7, GridSpacingM: 0.05}
}

func userCenter(rng *rand.Rand) []float64 {
	c := make([]float64, 16*16)
	for i := range c {
		c[i] = rng.NormFloat64()
	}
	return c
}

// synthRoster builds per-user enrollment plus fresh probe images from the
// same identity templates.
func synthRoster(users, perUser, probes int, seed int64) (enroll, probe map[int][]*core.AcousticImage) {
	rng := rand.New(rand.NewSource(seed))
	enroll = make(map[int][]*core.AcousticImage, users)
	probe = make(map[int][]*core.AcousticImage, users)
	for u := 1; u <= users; u++ {
		c := userCenter(rng)
		for s := 0; s < perUser; s++ {
			enroll[u] = append(enroll[u], synthImage(rng, c, 0.3))
		}
		for s := 0; s < probes; s++ {
			probe[u] = append(probe[u], synthImage(rng, c, 0.3))
		}
	}
	return enroll, probe
}

// TestIdentifyANNMatchesExhaustive trains the same 24-user enrollment
// through both identification engines and requires the ANN path to agree
// with the exhaustive one-vs-one SVM on essentially every probe, with
// shortlist recall ≥ 0.99.
func TestIdentifyANNMatchesExhaustive(t *testing.T) {
	enroll, probe := synthRoster(24, 6, 4, 42)

	annCfg := cheapAuthConfig()
	exCfg := cheapAuthConfig()
	exCfg.Identify.Mode = core.IdentifyExhaustive

	annAuth, err := core.TrainAuthenticator(context.Background(), annCfg, enroll)
	if err != nil {
		t.Fatalf("train ANN: %v", err)
	}
	exAuth, err := core.TrainAuthenticator(context.Background(), exCfg, enroll)
	if err != nil {
		t.Fatalf("train exhaustive: %v", err)
	}
	if annAuth.IdentifyMode() != core.IdentifyANN {
		t.Fatalf("ANN model mode %q", annAuth.IdentifyMode())
	}
	if exAuth.IdentifyMode() != core.IdentifyExhaustive {
		t.Fatalf("exhaustive model mode %q", exAuth.IdentifyMode())
	}
	if annAuth.IndexSize() != 24*6 {
		t.Fatalf("index size %d, want %d", annAuth.IndexSize(), 24*6)
	}

	var total, agree, hits int
	for u, imgs := range probe {
		for _, img := range imgs {
			total++
			a := annAuth.Authenticate(img)
			e := exAuth.Authenticate(img)
			if a.Accepted == e.Accepted && a.UserID == e.UserID {
				agree++
			}
			for _, id := range annAuth.Shortlist(img, 0) {
				if id == u {
					hits++
					break
				}
			}
		}
	}
	agreement := float64(agree) / float64(total)
	recall := float64(hits) / float64(total)
	t.Logf("ANN vs exhaustive agreement %.3f, shortlist recall %.3f (%d probes)", agreement, recall, total)
	if recall < 0.99 {
		t.Errorf("shortlist recall %.3f below 0.99", recall)
	}
	if agreement < 0.97 {
		t.Errorf("engine agreement %.3f below 0.97", agreement)
	}
}

// TestShortlistPastSVMBound trains more users than the margin re-ranker
// bound, forcing the cosine-similarity re-rank, and requires identification
// to keep working.
func TestShortlistPastSVMBound(t *testing.T) {
	cfg := cheapAuthConfig()
	cfg.Identify.MaxSVMUsers = 8 // far below the 20-user roster
	enroll, probe := synthRoster(20, 5, 3, 7)
	auth, err := core.TrainAuthenticator(context.Background(), cfg, enroll)
	if err != nil {
		t.Fatal(err)
	}
	var total, accepted int
	for u, imgs := range probe {
		for _, img := range imgs {
			total++
			r := auth.Authenticate(img)
			if !r.Accepted {
				continue // SVDD false-reject; the gate, not the re-ranker
			}
			accepted++
			if r.UserID != u {
				t.Errorf("user %d accepted as %d", u, r.UserID)
			}
		}
	}
	rate := float64(accepted) / float64(total)
	t.Logf("similarity re-rank: %d/%d accepted, every acceptance correct", accepted, total)
	if rate < 0.6 {
		t.Errorf("acceptance rate %.3f below 0.6", rate)
	}
}

// TestPersistRoundTripByteIdentity checks the v2 snapshot property the
// registry's durability story rests on: save → load → save reproduces the
// exact bytes, and the loaded model answers fixed queries identically.
func TestPersistRoundTripByteIdentity(t *testing.T) {
	enroll, probe := synthRoster(6, 5, 3, 99)
	auth, err := core.TrainAuthenticator(context.Background(), cheapAuthConfig(), enroll)
	if err != nil {
		t.Fatal(err)
	}

	var first bytes.Buffer
	if err := auth.Save(&first); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadAuthenticator(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := loaded.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("re-serialization differs: %d vs %d bytes", first.Len(), second.Len())
	}

	if loaded.IdentifyMode() != core.IdentifyANN {
		t.Fatalf("loaded mode %q", loaded.IdentifyMode())
	}
	if got, want := loaded.IndexSize(), auth.IndexSize(); got != want {
		t.Fatalf("loaded index size %d, want %d", got, want)
	}
	if !loaded.CanExtend() {
		t.Fatal("loaded v2 model should support incremental extension")
	}
	for u, imgs := range probe {
		for i, img := range imgs {
			a, b := auth.Authenticate(img), loaded.Authenticate(img)
			if a != b {
				t.Fatalf("user %d probe %d: original %+v, loaded %+v", u, i, a, b)
			}
			as, bs := auth.Shortlist(img, 8), loaded.Shortlist(img, 8)
			if len(as) != len(bs) {
				t.Fatalf("user %d probe %d: shortlist %v vs %v", u, i, as, bs)
			}
			for j := range as {
				if as[j] != bs[j] {
					t.Fatalf("user %d probe %d: shortlist %v vs %v", u, i, as, bs)
				}
			}
		}
	}
}

// TestPersistRejectsCorruptSnapshots mutates a valid v2 snapshot —
// truncated index blob, truncated embeddings blob, an index without its
// embeddings — and requires LoadAuthenticator to reject each.
func TestPersistRejectsCorruptSnapshots(t *testing.T) {
	enroll, _ := synthRoster(4, 4, 0, 5)
	auth, err := core.TrainAuthenticator(context.Background(), cheapAuthConfig(), enroll)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := auth.Save(&buf); err != nil {
		t.Fatal(err)
	}

	mutate := func(t *testing.T, f func(bin map[string]any)) []byte {
		t.Helper()
		var state map[string]any
		if err := json.Unmarshal(buf.Bytes(), &state); err != nil {
			t.Fatal(err)
		}
		bins := state["bins"].(map[string]any)
		for _, b := range bins {
			f(b.(map[string]any))
		}
		out, err := json.Marshal(state)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	truncate := func(field string) func(map[string]any) {
		return func(bin map[string]any) {
			raw, err := base64.StdEncoding.DecodeString(bin[field].(string))
			if err != nil {
				t.Fatal(err)
			}
			bin[field] = base64.StdEncoding.EncodeToString(raw[:len(raw)/2])
		}
	}

	cases := map[string]func(map[string]any){
		"truncated index":      truncate("index"),
		"truncated embeddings": truncate("embeds"),
		"index without embeds": func(bin map[string]any) { delete(bin, "embeds") },
		"embeds without index": func(bin map[string]any) { delete(bin, "index") },
	}
	for name, f := range cases {
		mutated := mutate(t, f)
		if _, err := core.LoadAuthenticator(bytes.NewReader(mutated)); err == nil {
			t.Errorf("%s: corrupted snapshot accepted", name)
		} else {
			t.Logf("%s: rejected with %v", name, err)
		}
	}

	// Truncating the JSON itself must also fail cleanly.
	if _, err := core.LoadAuthenticator(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Error("truncated JSON accepted")
	}
}

// TestExtendContextAddsUserWithoutRetraining extends a trained model with
// a new user and checks every user still identifies, the original model is
// untouched, and invalid extensions are rejected.
func TestExtendContextAddsUserWithoutRetraining(t *testing.T) {
	enroll, probe := synthRoster(5, 6, 3, 17)
	newUser := 6
	add := map[int][]*core.AcousticImage{newUser: enroll[newUser]}
	rng := rand.New(rand.NewSource(18))
	c := userCenter(rng)
	var newProbes []*core.AcousticImage
	for s := 0; s < 6; s++ {
		add[newUser] = append(add[newUser], synthImage(rng, c, 0.3))
	}
	for s := 0; s < 3; s++ {
		newProbes = append(newProbes, synthImage(rng, c, 0.3))
	}

	auth, err := core.TrainAuthenticator(context.Background(), cheapAuthConfig(), enroll)
	if err != nil {
		t.Fatal(err)
	}
	if !auth.CanExtend() {
		t.Fatal("ANN-mode model should support extension")
	}
	ext, err := auth.ExtendContext(t.Context(), add, enroll)
	if err != nil {
		t.Fatalf("ExtendContext: %v", err)
	}

	if got, want := len(ext.Users()), 6; got != want {
		t.Fatalf("extended users %v", ext.Users())
	}
	if got, want := len(auth.Users()), 5; got != want {
		t.Fatalf("original model mutated: users %v", auth.Users())
	}
	if ext.IndexSize() <= auth.IndexSize() {
		t.Fatalf("extended index size %d, original %d", ext.IndexSize(), auth.IndexSize())
	}

	// The whitener, gates and gamma are frozen during extension, so an
	// existing user's decision must be bit-identical before and after —
	// that is the "adding user n+1 does not retrain the first n" claim.
	for u, imgs := range probe {
		for i, img := range imgs {
			before, after := auth.Authenticate(img), ext.Authenticate(img)
			if before != after {
				t.Errorf("user %d probe %d: pre-extension %+v, post-extension %+v", u, i, before, after)
			}
		}
	}
	var newAccepted int
	for i, img := range newProbes {
		r := ext.Authenticate(img)
		if r.Accepted && r.UserID != newUser {
			t.Errorf("new-user probe %d accepted as %d", i, r.UserID)
		}
		if r.Accepted {
			newAccepted++
		}
	}
	t.Logf("new user: %d/%d probes accepted, every acceptance correct", newAccepted, len(newProbes))
	if newAccepted*2 < len(newProbes) {
		t.Errorf("new user accepted on only %d/%d probes", newAccepted, len(newProbes))
	}

	// The extended model must persist and re-load like any other.
	var snap bytes.Buffer
	if err := ext.Save(&snap); err != nil {
		t.Fatal(err)
	}
	if _, err := core.LoadAuthenticator(&snap); err != nil {
		t.Fatalf("reload extended model: %v", err)
	}

	// Invalid extensions are rejected.
	if _, err := auth.ExtendContext(t.Context(), map[int][]*core.AcousticImage{1: enroll[1]}, enroll); err == nil {
		t.Error("re-adding a registered user accepted")
	}
	tooFew := map[int][]*core.AcousticImage{7: add[newUser][:2]}
	if _, err := auth.ExtendContext(t.Context(), tooFew, enroll); err == nil {
		t.Error("two-image enrollment accepted for extension")
	}

	// Exhaustive-mode models cannot extend.
	exCfg := cheapAuthConfig()
	exCfg.Identify.Mode = core.IdentifyExhaustive
	exAuth, err := core.TrainAuthenticator(context.Background(), exCfg, enroll)
	if err != nil {
		t.Fatal(err)
	}
	if exAuth.CanExtend() {
		t.Error("exhaustive model claims extension support")
	}
}

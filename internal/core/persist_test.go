package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"echoimage/internal/core"
	"echoimage/internal/dataset"
)

// TestModelSaveLoadRoundTrip trains a two-user model, serializes it, loads
// it back, and checks decisions are identical.
func TestModelSaveLoadRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	sys := smallSystem(t)
	enrollment := make(map[int][]*core.AcousticImage)
	for _, id := range []int{1, 2} {
		spec := quickSpec(id, 1, 8, int64(100*id))
		spec.Placements = 2
		imgs, err := dataset.CollectImages(context.Background(), sys, spec, true)
		if err != nil {
			t.Fatal(err)
		}
		enrollment[id] = imgs
	}
	auth, err := core.TrainAuthenticator(context.Background(), core.DefaultAuthConfig(), enrollment)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := auth.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadAuthenticator(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := loaded.Users(), auth.Users(); len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("loaded users %v, want %v", got, want)
	}
	if got, want := loaded.Bins(), auth.Bins(); len(got) != len(want) {
		t.Fatalf("loaded bins %v, want %v", got, want)
	}

	// Decisions must be byte-identical on fresh probes.
	for _, id := range []int{1, 2, 15} {
		spec := quickSpec(id, 3, 3, int64(7000+id))
		imgs, err := dataset.CollectImages(context.Background(), sys, spec, true)
		if err != nil {
			t.Fatal(err)
		}
		for i, img := range imgs {
			a := auth.Authenticate(img)
			b := loaded.Authenticate(img)
			if a != b {
				t.Fatalf("user %d image %d: original %+v, loaded %+v", id, i, a, b)
			}
		}
	}
}

func TestLoadAuthenticatorRejectsGarbage(t *testing.T) {
	if _, err := core.LoadAuthenticator(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := core.LoadAuthenticator(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Error("future version accepted")
	}
}

// v1Snapshot saves a trained model and rewrites it into the version 1
// shape: no persisted config and no per-bin kernel width or index.
func v1Snapshot(t *testing.T) []byte {
	t.Helper()
	enroll, _ := synthRoster(3, 4, 0, 5)
	auth, err := core.TrainAuthenticator(context.Background(), cheapAuthConfig(), enroll)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := auth.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var state map[string]any
	if err := json.Unmarshal(buf.Bytes(), &state); err != nil {
		t.Fatal(err)
	}
	state["version"] = 1
	delete(state, "config")
	for _, b := range state["bins"].(map[string]any) {
		bin := b.(map[string]any)
		delete(bin, "gamma")
		delete(bin, "index")
	}
	out, err := json.Marshal(state)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLoadAuthenticatorRejectsV1Snapshot pins the retired format: a
// version 1 snapshot fails with an error naming both versions instead of
// loading as an exhaustive-only model.
func TestLoadAuthenticatorRejectsV1Snapshot(t *testing.T) {
	auth, err := core.LoadAuthenticator(bytes.NewReader(v1Snapshot(t)))
	if err == nil {
		t.Fatal("version 1 snapshot loaded")
	}
	if auth != nil {
		t.Error("rejected snapshot still returned a model")
	}
	if msg := err.Error(); !strings.Contains(msg, "version 1") || !strings.Contains(msg, "want 3") {
		t.Errorf("error %q does not name both format versions", msg)
	}
}

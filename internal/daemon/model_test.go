package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"echoimage/internal/aimage"
	"echoimage/internal/core"
	"echoimage/internal/features"
)

// writeV1Model trains a small model on synthetic images, rewrites its
// snapshot into the version 1 shape (no config, no per-bin kernel width,
// embeddings or index) and writes it to a file, as an old -model file.
func writeV1Model(t *testing.T) string {
	t.Helper()
	cfg := core.DefaultAuthConfig()
	cfg.Features = features.Config{InputSize: 16, Channels: []int{4, 8}, Seed: 1}
	rng := rand.New(rand.NewSource(5))
	enroll := make(map[int][]*core.AcousticImage)
	for u := 1; u <= 3; u++ {
		center := make([]float64, 16*16)
		for i := range center {
			center[i] = rng.NormFloat64()
		}
		for s := 0; s < 4; s++ {
			im := aimage.New(16, 16)
			for i := range im.Pix {
				im.Pix[i] = center[i] + 0.3*rng.NormFloat64()
			}
			enroll[u] = append(enroll[u], &core.AcousticImage{Image: im, PlaneDistM: 0.7, GridSpacingM: 0.05})
		}
	}
	auth, err := core.TrainAuthenticator(context.Background(), cfg, enroll)
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
		delete(bin, "embeds")
		delete(bin, "index")
	}
	data, err := json.Marshal(state)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadModelRejectsV1Snapshot feeds a version 1 model file to
// LoadModel the way echoimaged's -model flag does: the load fails with
// the format-version error and the server stays untrained.
func TestLoadModelRejectsV1Snapshot(t *testing.T) {
	f, err := os.Open(writeV1Model(t))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	srv := testServer(t, Options{})
	err = srv.LoadModel(f)
	if err == nil {
		t.Fatal("version 1 model loaded")
	}
	if msg := err.Error(); !strings.Contains(msg, "version 1") || !strings.Contains(msg, "want 2") {
		t.Errorf("error %q does not name both format versions", msg)
	}
	if st := srv.Status(); st.Trained || st.ModelVersion != 0 {
		t.Errorf("rejected model installed: %+v", st)
	}
	if info := srv.ModelInfo(); info.Trained || info.Loaded {
		t.Errorf("rejected model visible in model info: %+v", info)
	}
}

package registry

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"echoimage/internal/aimage"
	"echoimage/internal/core"
)

// handoffImages builds enrollment images that survive the import
// validation (non-nil pixels), unlike the stubImages used by the trainer
// tests.
func handoffImages(n int) []*core.AcousticImage {
	imgs := make([]*core.AcousticImage, n)
	for i := range imgs {
		im := aimage.New(2, 2)
		im.Pix[0] = float64(i + 1)
		imgs[i] = &core.AcousticImage{Image: im, GridSpacingM: 0.05}
	}
	return imgs
}

func TestExportImportRoundTrip(t *testing.T) {
	src := New(core.AuthConfig{}, Options{Train: instantTrain})
	defer src.Close()
	const user = 7
	if err := src.AddImages(user, handoffImages(3)); err != nil {
		t.Fatal(err)
	}
	if err := src.Retrain(context.Background()); err != nil {
		t.Fatal(err)
	}

	blob, images, err := src.ExportUser(user)
	if err != nil {
		t.Fatal(err)
	}
	if images != 3 {
		t.Errorf("export reports %d images, want 3", images)
	}

	dst := New(core.AuthConfig{}, Options{Train: instantTrain})
	defer dst.Close()
	id, n, imported, err := dst.ImportUser(blob)
	if err != nil {
		t.Fatal(err)
	}
	if id != user || n != 3 || !imported {
		t.Errorf("import returned id=%d n=%d imported=%v", id, n, imported)
	}
	stats := dst.Stats()
	if len(stats.Users) != 1 || stats.Images != 3 {
		t.Errorf("post-import stats %+v", stats)
	}

	// Idempotent re-delivery: same blob again is a no-op success.
	id, n, imported, err = dst.ImportUser(blob)
	if err != nil {
		t.Fatalf("re-delivered import errored: %v", err)
	}
	if id != user || n != 3 || imported {
		t.Errorf("re-delivery returned id=%d n=%d imported=%v, want no-op", id, n, imported)
	}
	if stats := dst.Stats(); stats.Images != 3 {
		t.Errorf("re-delivery changed stats: %+v", stats)
	}

	// A conflicting enrollment of a different size must refuse to merge.
	conflict := New(core.AuthConfig{}, Options{Train: instantTrain})
	defer conflict.Close()
	if err := conflict.AddImages(user, handoffImages(5)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := conflict.ImportUser(blob); err == nil || !strings.Contains(err.Error(), "refusing to merge") {
		t.Errorf("conflicting import: %v, want refusing-to-merge error", err)
	}
}

func TestExportUnknownUser(t *testing.T) {
	r := New(core.AuthConfig{}, Options{Train: instantTrain})
	defer r.Close()
	if _, _, err := r.ExportUser(42); err == nil {
		t.Error("export of an unenrolled user succeeded")
	}
}

func TestImportRejectsCorruptBlobs(t *testing.T) {
	r := New(core.AuthConfig{}, Options{Train: instantTrain})
	defer r.Close()
	cases := map[string]string{
		"garbage":     `{{{`,
		"version 1":   `{"version":1,"user_id":1,"images":[{"Rows":1,"Cols":1,"Pix":[1]}]}`,
		"bad version": `{"version":99,"user_id":1,"images":[{"Rows":1,"Cols":1,"Pix":[1]}]}`,
		"no user":     `{"version":2,"user_id":0,"images":[{"Rows":1,"Cols":1,"Pix":[1]}]}`,
		"no images":   `{"version":2,"user_id":1,"images":[]}`,
		"empty image": `{"version":2,"user_id":1,"images":[{}]}`,
	}
	for name, blob := range cases {
		if _, _, _, err := r.ImportUser([]byte(blob)); err == nil {
			t.Errorf("%s blob imported without error", name)
		}
	}
	if stats := r.Stats(); len(stats.Users) != 0 {
		t.Errorf("rejected blobs changed state: %+v", stats)
	}
}

// TestImportIgnoresModelKey: blobs written by builds that also carried a
// per-user model slice under "model" still import. The key is never read,
// so its content — here one an old validator would have refused — does
// not matter.
func TestImportIgnoresModelKey(t *testing.T) {
	r := New(core.AuthConfig{}, Options{Train: instantTrain})
	defer r.Close()
	blob := `{"version":2,"user_id":4,"images":[{"Rows":1,"Cols":1,"Pix":[1]}],"model":{"bins":{"notanumber":null}}}`
	id, n, imported, err := r.ImportUser([]byte(blob))
	if err != nil {
		t.Fatalf("blob with a model key refused: %v", err)
	}
	if id != 4 || n != 1 || !imported {
		t.Errorf("import returned id=%d n=%d imported=%v", id, n, imported)
	}
}

func TestFlushAndRestoreState(t *testing.T) {
	dir := t.TempDir()
	src := New(core.AuthConfig{}, Options{Train: instantTrain, StateDir: dir})
	const user = 3
	if err := src.AddImages(user, handoffImages(2)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := src.FlushUser(user); err != nil {
		t.Fatal(err)
	}
	src.Close()
	path := filepath.Join(dir, "user-3.json")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("flush wrote no state file: %v", err)
	}
	// A corrupt stray blob must not block the healthy one.
	if err := os.WriteFile(filepath.Join(dir, "user-9.json"), []byte("{{{"), 0o644); err != nil {
		t.Fatal(err)
	}

	fresh := New(core.AuthConfig{}, Options{Train: instantTrain, StateDir: dir})
	defer fresh.Close()
	restored, err := fresh.RestoreState()
	if err == nil || !strings.Contains(err.Error(), "user-9.json") {
		t.Errorf("restore error %v, want the corrupt blob reported", err)
	}
	if restored != 1 {
		t.Fatalf("restored %d users, want 1", restored)
	}
	stats := fresh.Stats()
	if len(stats.Users) != 1 || stats.Images != 2 {
		t.Errorf("post-restore stats %+v", stats)
	}
	// Restore is idempotent: the blobs are already in memory.
	if again, err := fresh.RestoreState(); again != 0 {
		t.Errorf("second restore imported %d users (err %v)", again, err)
	}
}

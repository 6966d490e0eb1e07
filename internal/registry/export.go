// Shard-local per-user persistence: serialize one user's state (raw
// enrollment captures) to a blob that can be flushed to disk and handed
// to another shard. This is the registry half of the cluster drain →
// flush → handoff pipeline: the enrollment images are the ground truth a
// successor retrains from (a peer's whitener and identification space
// are shard-local, so grafting model internals across shards is unsound).
package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"echoimage/internal/core"
)

// userStateVersion is the per-user blob format, the only one ever
// written. Blobs from builds that also carried a per-user model slice
// under "model" still import: the decoder ignores that key.
const userStateVersion = 2

// userState is the serialized shard-local state of one user.
type userState struct {
	Version int                   `json:"version"`
	UserID  int                   `json:"user_id"`
	Images  []*core.AcousticImage `json:"images"`
}

// ExportUser serializes the user's enrollment images. It returns the blob
// and the image count, without touching disk.
func (r *Registry) ExportUser(userID int) ([]byte, int, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, 0, ErrClosed
	}
	imgs := r.enrollment[userID]
	r.mu.Unlock()
	if len(imgs) == 0 {
		return nil, 0, fmt.Errorf("registry: user %d has no enrollment", userID)
	}
	st := userState{
		Version: userStateVersion,
		UserID:  userID,
		// Image slices are append-only; sharing the backing array with the
		// store is safe, but the slice header is copied so a concurrent
		// enroll cannot grow it under the encoder.
		Images: imgs[:len(imgs):len(imgs)],
	}
	blob, err := json.Marshal(&st)
	if err != nil {
		return nil, 0, fmt.Errorf("registry: encode user %d state: %w", userID, err)
	}
	return blob, len(st.Images), nil
}

// FlushUser serializes the user's state and, when a state directory is
// configured, durably writes it there (atomic temp + rename + fsync,
// like model persistence) before returning the blob. Without a state
// directory it degrades to ExportUser.
func (r *Registry) FlushUser(userID int) ([]byte, int, error) {
	blob, images, err := r.ExportUser(userID)
	if err != nil {
		return nil, 0, err
	}
	if r.stateDir != "" {
		if err := writeDurable(r.userStatePath(userID), func(f *os.File) error {
			_, werr := f.Write(blob)
			return werr
		}); err != nil {
			return nil, 0, fmt.Errorf("registry: flush user %d state: %w", userID, err)
		}
	}
	return blob, images, nil
}

// ImportUser installs a blob produced by ExportUser/FlushUser, returning
// the user ID, the blob's image count, and whether anything was installed.
// Import is idempotent: a blob matching an already-present enrollment of
// the same size reports imported=false with no error (a re-delivered
// handoff), while a mismatched existing enrollment is a conflict error.
// Corrupt blobs — undecodable, of another version, or carrying no or
// empty images — are rejected before any state changes. A successful install is
// flushed to the state directory when one is configured.
func (r *Registry) ImportUser(blob []byte) (int, int, bool, error) {
	var st userState
	if err := json.Unmarshal(blob, &st); err != nil {
		return 0, 0, false, fmt.Errorf("registry: decode user state: %w", err)
	}
	if st.Version != userStateVersion {
		return 0, 0, false, fmt.Errorf("registry: user state version %d, want %d", st.Version, userStateVersion)
	}
	if st.UserID <= 0 {
		return 0, 0, false, fmt.Errorf("registry: user state ID %d must be positive", st.UserID)
	}
	if len(st.Images) == 0 {
		return 0, 0, false, fmt.Errorf("registry: user %d state carries no images", st.UserID)
	}
	for i, img := range st.Images {
		if img == nil || img.Image == nil || len(img.Pix) == 0 {
			return 0, 0, false, fmt.Errorf("registry: user %d state image %d is empty", st.UserID, i)
		}
	}

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return 0, 0, false, ErrClosed
	}
	if existing := r.enrollment[st.UserID]; len(existing) > 0 {
		n := len(existing)
		r.mu.Unlock()
		if n == len(st.Images) {
			return st.UserID, n, false, nil // identical re-delivery: success
		}
		return 0, 0, false, fmt.Errorf("registry: user %d already enrolled with %d images (blob has %d); refusing to merge",
			st.UserID, n, len(st.Images))
	}
	r.enrollment[st.UserID] = st.Images
	r.numImages += len(st.Images)
	r.gen++
	r.publishStatsLocked()
	r.mu.Unlock()

	if r.stateDir != "" {
		if err := writeDurable(r.userStatePath(st.UserID), func(f *os.File) error {
			_, werr := f.Write(blob)
			return werr
		}); err != nil {
			// The in-memory import stands; surface the durability gap.
			r.logf("registry: flush imported user %d state: %v", st.UserID, err)
		}
	}
	return st.UserID, len(st.Images), true, nil
}

// RestoreState loads every user blob from the state directory into the
// enrollment store, returning how many users were restored. Blobs that
// fail to import (corrupt, or conflicting with already-present state) are
// skipped and reported in the joined error; the rest still restore, so
// one bad file cannot take down a shard holding many users.
func (r *Registry) RestoreState() (int, error) {
	if r.stateDir == "" {
		return 0, nil
	}
	paths, err := filepath.Glob(filepath.Join(r.stateDir, "user-*.json"))
	if err != nil {
		return 0, fmt.Errorf("registry: scan state dir: %w", err)
	}
	sort.Strings(paths)
	restored := 0
	var errs []error
	for _, p := range paths {
		blob, rerr := os.ReadFile(p)
		if rerr != nil {
			errs = append(errs, rerr)
			continue
		}
		id, images, imported, ierr := r.ImportUser(blob)
		if ierr != nil {
			errs = append(errs, fmt.Errorf("%s: %w", filepath.Base(p), ierr))
			continue
		}
		if imported {
			restored++
			r.logf("registry: restored user %d (%d images) from %s", id, images, filepath.Base(p))
		}
	}
	return restored, errors.Join(errs...)
}

func (r *Registry) userStatePath(userID int) string {
	return filepath.Join(r.stateDir, fmt.Sprintf("user-%d.json", userID))
}

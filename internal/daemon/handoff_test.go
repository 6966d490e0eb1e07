package daemon

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"echoimage/internal/proto"
)

// TestHandoffExportImport walks the daemon half of the drain pipeline:
// enroll on a source daemon, flush-export the user's state (durable in
// the source's state directory), import on a destination daemon, and
// verify the destination trains a model covering the user.
func TestHandoffExportImport(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	srcDir, dstDir := t.TempDir(), t.TempDir()
	src := testServer(t, Options{StateDir: srcDir})
	dst := testServer(t, Options{StateDir: dstDir})

	const user = 2
	enrollTrained(t, serveConn(t, src), user,
		wireCapture(t, user, 1, 3, 0), wireCapture(t, user, 2, 3, 1))

	exp, err := src.handoff(&proto.HandoffRequest{UserID: user, Export: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.State) == 0 || exp.Images != 6 {
		t.Fatalf("export returned %d bytes, %d images (want 6)", len(exp.State), exp.Images)
	}
	if _, err := os.Stat(filepath.Join(srcDir, "user-2.json")); err != nil {
		t.Errorf("export did not flush the user's state durably: %v", err)
	}

	imp, err := dst.handoff(&proto.HandoffRequest{UserID: user, State: exp.State})
	if err != nil {
		t.Fatal(err)
	}
	if !imp.Imported || imp.UserID != user || imp.Images != 6 {
		t.Fatalf("import response %+v", imp)
	}
	if !imp.RetrainQueued {
		t.Error("import did not queue a retrain")
	}

	// Idempotent re-delivery: no error, nothing re-imported.
	if again, err := dst.handoff(&proto.HandoffRequest{UserID: user, State: exp.State}); err != nil || again.Imported {
		t.Errorf("re-delivered import: %+v, %v", again, err)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		if st := dst.Status(); st.Trained {
			if len(st.Users) != 1 || st.Users[0] != user || st.TotalImages != 6 {
				t.Errorf("destination status %+v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("destination never trained after import")
		}
		time.Sleep(10 * time.Millisecond)
	}
	var resp proto.AuthResponse
	mustCall(t, serveConn(t, dst), proto.TypeAuthRequest, proto.AuthRequest{Capture: wireCapture(t, user, 3, 3, 77)}, &resp)
	t.Logf("post-handoff auth: accepted=%v id=%d score=%.3f", resp.Accepted, resp.UserID, resp.GateScore)
	if resp.Accepted && resp.UserID != user {
		t.Errorf("accepted as wrong user %d", resp.UserID)
	}

	// Malformed handoffs are refused before touching state.
	if _, err := src.handoff(&proto.HandoffRequest{UserID: user}); err == nil {
		t.Error("handoff with neither export nor state accepted")
	}
	if _, err := src.handoff(&proto.HandoffRequest{UserID: user, Export: true, State: exp.State}); err == nil {
		t.Error("handoff with both export and state accepted")
	}
	if _, err := dst.handoff(&proto.HandoffRequest{UserID: 99, State: exp.State}); err == nil {
		t.Error("import addressed to the wrong user accepted")
	}
	if _, err := src.handoff(&proto.HandoffRequest{UserID: 41, Export: true}); err == nil {
		t.Error("export of an unenrolled user accepted")
	}
}

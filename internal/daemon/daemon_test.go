package daemon

import (
	"context"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"echoimage/internal/array"
	"echoimage/internal/body"
	"echoimage/internal/core"
	"echoimage/internal/dataset"
	"echoimage/internal/proto"
	"echoimage/internal/sim"
)

func testServer(t *testing.T, opts Options) *Server {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.GridRows, cfg.GridCols = 24, 24
	cfg.GridSpacingM = 0.08
	sys, err := core.NewSystem(cfg, array.ReSpeaker())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWithOptions(sys, core.DefaultAuthConfig(), t.Logf, opts)
	t.Cleanup(srv.Close)
	return srv
}

func wireCapture(t *testing.T, userID, session, beeps int, seed int64) proto.CaptureWire {
	t.Helper()
	spec := dataset.SessionSpec{
		Profile:   body.Roster()[userID-1],
		Env:       sim.EnvLab,
		Noise:     sim.NoiseQuiet,
		DistanceM: 0.7,
		Session:   session,
		Beeps:     beeps,
		Seed:      seed,
	}
	cap, noiseOnly, err := dataset.Collect(spec)
	if err != nil {
		t.Fatal(err)
	}
	return proto.CaptureWire{
		Beeps:      cap.Beeps,
		SampleRate: cap.SampleRate,
		NoiseOnly:  noiseOnly,
		Reference:  cap.Reference,
	}
}

func TestEnrollAuthenticateDirect(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	srv := testServer(t, Options{})
	ctx := context.Background()

	// Authentication before any training must fail cleanly.
	if _, err := srv.Authenticate(ctx, &proto.AuthRequest{Capture: wireCapture(t, 1, 3, 2, 9)}); err == nil {
		t.Error("untrained daemon authenticated")
	}

	for p := 0; p < 3; p++ {
		resp, err := srv.Enroll(ctx, &proto.EnrollRequest{
			UserID:  1,
			Capture: wireCapture(t, 1, 1, 5, int64(p)),
			Retrain: p == 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Images != 5 {
			t.Errorf("placement %d produced %d images", p, resp.Images)
		}
		if (p == 2) != resp.Trained {
			t.Errorf("placement %d trained=%v", p, resp.Trained)
		}
	}
	status := srv.Status()
	if !status.Trained || status.TotalImages != 15 || len(status.Users) != 1 {
		t.Errorf("status %+v", status)
	}
	if status.ModelVersion != 1 {
		t.Errorf("model version %d after first train", status.ModelVersion)
	}

	resp, err := srv.Authenticate(ctx, &proto.AuthRequest{Capture: wireCapture(t, 1, 3, 4, 42)})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("legit: accepted=%v id=%d score=%.3f dist=%.2f", resp.Accepted, resp.UserID, resp.GateScore, resp.DistanceM)
	if resp.Accepted && resp.UserID != 1 {
		t.Errorf("accepted as wrong user %d", resp.UserID)
	}
	if resp.ModelVersion != 1 {
		t.Errorf("decision from model version %d", resp.ModelVersion)
	}
}

func TestEnrollValidation(t *testing.T) {
	srv := testServer(t, Options{})
	if _, err := srv.Enroll(context.Background(), &proto.EnrollRequest{UserID: 0}); err == nil {
		t.Error("user 0 accepted")
	}
}

// TestServeOverTCP exercises a v1 client — bare envelopes without version
// or request ID — against the v2 daemon: enroll with synchronous retrain,
// status, and an in-band protocol error, unchanged from the old protocol.
func TestServeOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	srv := testServer(t, Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ctx, ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	pc := proto.NewConn(conn)

	// Enroll with retrain over the wire; v1 semantics are synchronous, so
	// the response must report the model trained, not queued.
	if err := pc.Send(proto.TypeEnrollRequest, proto.EnrollRequest{
		UserID:  2,
		Capture: wireCapture(t, 2, 1, 6, 1),
		Retrain: true,
	}); err != nil {
		t.Fatal(err)
	}
	env, err := pc.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if env.Type != proto.TypeEnrollResponse {
		t.Fatalf("response type %q", env.Type)
	}
	if env.Version != 0 || env.RequestID != "" {
		t.Errorf("v1 request answered with v2 envelope fields: %+v", env)
	}
	var enrolled proto.EnrollResponse
	if err := proto.DecodeBody(env, &enrolled); err != nil {
		t.Fatal(err)
	}
	if !enrolled.Trained || enrolled.RetrainQueued {
		t.Errorf("v1 enroll got %+v, want synchronous train", enrolled)
	}

	// Status round trip.
	if err := pc.Send(proto.TypeStatusRequest, nil); err != nil {
		t.Fatal(err)
	}
	env, err = pc.Receive()
	if err != nil {
		t.Fatal(err)
	}
	var status proto.StatusResponse
	if err := proto.DecodeBody(env, &status); err != nil {
		t.Fatal(err)
	}
	if !status.Trained {
		t.Error("daemon not trained after retrain request")
	}

	// A malformed request yields a protocol error with a stable code, not
	// a dropped connection.
	if err := pc.Send(proto.MsgType("bogus"), nil); err != nil {
		t.Fatal(err)
	}
	env, err = pc.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if env.Type != proto.TypeError {
		t.Errorf("bogus request answered with %q", env.Type)
	}
	var perr proto.ErrorResponse
	if err := proto.DecodeBody(env, &perr); err != nil {
		t.Fatal(err)
	}
	if perr.Code != proto.CodeUnknownType {
		t.Errorf("error code %q, want %q", perr.Code, proto.CodeUnknownType)
	}

	conn.Close()
	cancel()
	select {
	case err := <-serveDone:
		if err != nil {
			t.Errorf("Serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("Serve did not stop after cancellation")
	}
}

// TestModelPersistenceAcrossRestart enrolls and retrains with a model
// path, then boots a fresh server from the written file and authenticates
// without re-enrolling.
func TestModelPersistenceAcrossRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	dir := t.TempDir()
	modelPath := dir + "/model.json"
	ctx := context.Background()

	srv := testServer(t, Options{ModelPath: modelPath})
	if _, err := srv.Enroll(ctx, &proto.EnrollRequest{
		UserID:  1,
		Capture: wireCapture(t, 1, 1, 8, 1),
		Retrain: true,
	}); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(modelPath)
	if err != nil {
		t.Fatalf("model not persisted: %v", err)
	}
	defer f.Close()
	fresh := testServer(t, Options{})
	if err := fresh.LoadModel(f); err != nil {
		t.Fatal(err)
	}
	if !fresh.Status().Trained {
		t.Fatal("restored server not trained")
	}
	if info := fresh.ModelInfo(); !info.Loaded {
		t.Errorf("restored model info %+v, want Loaded", info)
	}
	resp, err := fresh.Authenticate(ctx, &proto.AuthRequest{Capture: wireCapture(t, 1, 3, 4, 9)})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("restored-model decision: accepted=%v id=%d score=%.3f", resp.Accepted, resp.UserID, resp.GateScore)
	if resp.Accepted && resp.UserID != 1 {
		t.Errorf("restored model misidentified user as %d", resp.UserID)
	}
}

// v2call sends a v2 envelope and returns the response after verifying the
// request-ID echo.
func v2call(t *testing.T, pc *proto.Conn, msgType proto.MsgType, reqID string, body any) *proto.Envelope {
	t.Helper()
	env, err := proto.NewEnvelope(msgType, reqID, body)
	if err != nil {
		t.Fatal(err)
	}
	if err := pc.SendEnvelope(env); err != nil {
		t.Fatal(err)
	}
	resp, err := pc.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if resp.RequestID != reqID {
		t.Fatalf("response request_id %q, want %q", resp.RequestID, reqID)
	}
	if resp.Version != proto.Version {
		t.Fatalf("response version %d, want %d", resp.Version, proto.Version)
	}
	return resp
}

// TestAuthenticateDuringRetrain is the serving-stack liveness proof: with
// a background retrain deliberately blocked in the trainer, parallel v2
// authenticate requests must all be answered by the previous model
// version. Only after the trainer is released may the version advance.
// Run under -race (make race) this also checks the swap for data races.
func TestAuthenticateDuringRetrain(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	release := make(chan struct{})
	var trains atomic.Int32
	train := func(ctx context.Context, cfg core.AuthConfig, enr map[int][]*core.AcousticImage) (*core.Authenticator, error) {
		if trains.Add(1) > 1 {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return core.TrainAuthenticator(ctx, cfg, enr)
	}
	// QueueWait is generous: on a small machine the parallel authenticates
	// below legitimately queue for one processing slot, and this test is
	// about retrain liveness, not load shedding (chaos_test.go covers that).
	srv := testServer(t, Options{Train: train, QueueWait: time.Minute})
	ctx := context.Background()

	// Train model v1 synchronously so authentication has a live model.
	if _, err := srv.Enroll(ctx, &proto.EnrollRequest{
		UserID:  1,
		Capture: wireCapture(t, 1, 1, 6, 1),
		Retrain: true,
	}); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(serveCtx, ln) }()

	// v2 enroll with retrain: the response must come back immediately
	// with the retrain queued, while the trainer blocks on `release`.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pc := proto.NewConn(conn)
	resp := v2call(t, pc, proto.TypeEnrollRequest, "enroll-1", proto.EnrollRequest{
		UserID:  1,
		Capture: wireCapture(t, 1, 2, 6, 2),
		Retrain: true,
	})
	if resp.Type != proto.TypeEnrollResponse {
		t.Fatalf("response type %q", resp.Type)
	}
	var enrolled proto.EnrollResponse
	if err := proto.DecodeBody(resp, &enrolled); err != nil {
		t.Fatal(err)
	}
	if !enrolled.RetrainQueued || enrolled.Trained {
		t.Fatalf("v2 enroll got %+v, want queued retrain", enrolled)
	}

	// With the retrain wedged in the trainer, N parallel authenticates
	// must all complete against model v1. Joining them before releasing
	// the trainer proves no authenticate ever waits on training.
	const parallel = 4
	var wg sync.WaitGroup
	errs := make(chan error, parallel)
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			cpc := proto.NewConn(c)
			env, err := proto.NewEnvelope(proto.TypeAuthRequest, "", proto.AuthRequest{
				Capture: wireCapture(t, 1, 3, 3, int64(100+i)),
			})
			if err != nil {
				errs <- err
				return
			}
			if err := cpc.SendEnvelope(env); err != nil {
				errs <- err
				return
			}
			r, err := cpc.Receive()
			if err != nil {
				errs <- err
				return
			}
			var auth proto.AuthResponse
			if err := proto.DecodeBody(r, &auth); err != nil {
				errs <- err
				return
			}
			if auth.ModelVersion != 1 {
				errs <- fmt.Errorf("authenticate served by model v%d during retrain, want v1", auth.ModelVersion)
				return
			}
			errs <- nil
		}(i)
	}
	wg.Wait()
	for i := 0; i < parallel; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if v := srv.Registry().Snapshot().Info.Version; v != 1 {
		t.Fatalf("model version advanced to %d with the trainer still blocked", v)
	}

	// Release the trainer and wait for the swap to v2.
	close(release)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if snap := srv.Registry().Snapshot(); snap.Info.Version >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("retrain never published model v2")
		}
		time.Sleep(5 * time.Millisecond)
	}
	info := v2call(t, pc, proto.TypeModelInfoRequest, "info-1", nil)
	var mi proto.ModelInfoResponse
	if err := proto.DecodeBody(info, &mi); err != nil {
		t.Fatal(err)
	}
	if !mi.Trained || mi.ModelVersion != 2 || mi.Users != 1 || mi.Images != 12 {
		t.Errorf("model info %+v", mi)
	}
}

// TestRetrainMessage drives the v2 retrain/model_info pair end to end.
func TestRetrainMessage(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	srv := testServer(t, Options{})
	ctx := context.Background()
	if _, err := srv.Enroll(ctx, &proto.EnrollRequest{
		UserID:  1,
		Capture: wireCapture(t, 1, 1, 6, 1),
	}); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(serveCtx, ln) }()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pc := proto.NewConn(conn)

	resp := v2call(t, pc, proto.TypeRetrainRequest, "rt-1", proto.RetrainRequest{Wait: true})
	if resp.Type != proto.TypeRetrainResponse {
		t.Fatalf("response type %q", resp.Type)
	}
	var rt proto.RetrainResponse
	if err := proto.DecodeBody(resp, &rt); err != nil {
		t.Fatal(err)
	}
	if rt.Queued || rt.ModelVersion != 1 {
		t.Errorf("waited retrain got %+v", rt)
	}
}

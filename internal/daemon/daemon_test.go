package daemon

import (
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"strings"
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

// serveConn serves srv on one end of an in-memory pipe for the rest of
// the test and returns a client connection on the other end.
func serveConn(t *testing.T, srv *Server) *proto.Conn {
	t.Helper()
	return proto.NewConn(servePipe(t, srv))
}

// servePipe is serveConn's unframed form, for tests that write raw bytes.
func servePipe(t *testing.T, srv *Server) net.Conn {
	t.Helper()
	client, server := net.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		srv.loop.ServeConn(ctx, server)
		server.Close()
		close(done)
	}()
	t.Cleanup(func() {
		cancel()
		client.Close()
		<-done
	})
	return client
}

// mustCall sends one request and decodes its success reply into out (when
// non-nil), failing the test on an error reply.
func mustCall(t *testing.T, pc *proto.Conn, msgType proto.MsgType, body, out any) {
	t.Helper()
	resp := roundTrip(t, pc, msgType, "must-"+string(msgType), body)
	if err := proto.ReplyError(resp); err != nil {
		t.Fatalf("%s: %v", msgType, err)
	}
	if out != nil {
		if err := proto.DecodeBody(resp, out); err != nil {
			t.Fatal(err)
		}
	}
}

// enrollTrained enrolls each capture for user without retraining, then
// sends a waiting retrain, so a model covering them is live on return.
func enrollTrained(t *testing.T, pc *proto.Conn, user int, wires ...proto.CaptureWire) {
	t.Helper()
	for _, w := range wires {
		mustCall(t, pc, proto.TypeEnrollRequest, proto.EnrollRequest{UserID: user, Capture: w}, nil)
	}
	mustCall(t, pc, proto.TypeRetrainRequest, proto.RetrainRequest{Wait: true}, nil)
}

// replyCode is the stable code of an error reply ("" for success).
func replyCode(resp *proto.Envelope) string {
	return proto.ErrorCode(proto.ReplyError(resp))
}

func TestEnrollAuthenticateDirect(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	srv := testServer(t, Options{})
	pc := serveConn(t, srv)

	// Authentication before any training must fail cleanly.
	resp := roundTrip(t, pc, proto.TypeAuthRequest, "early", proto.AuthRequest{Capture: wireCapture(t, 1, 3, 2, 9)})
	if code := replyCode(resp); code != proto.CodeNotTrained {
		t.Errorf("untrained daemon answered %s/%q, want not_trained", resp.Type, code)
	}

	for p := 0; p < 3; p++ {
		var enrolled proto.EnrollResponse
		mustCall(t, pc, proto.TypeEnrollRequest, proto.EnrollRequest{
			UserID:  1,
			Capture: wireCapture(t, 1, 1, 5, int64(p)),
		}, &enrolled)
		if enrolled.Images != 5 {
			t.Errorf("placement %d produced %d images", p, enrolled.Images)
		}
		if enrolled.RetrainQueued {
			t.Errorf("placement %d queued a retrain it did not ask for", p)
		}
	}
	var rt proto.RetrainResponse
	mustCall(t, pc, proto.TypeRetrainRequest, proto.RetrainRequest{Wait: true}, &rt)
	if rt.Queued || rt.ModelVersion != 1 {
		t.Errorf("waited retrain got %+v", rt)
	}
	status := srv.Status()
	if !status.Trained || status.TotalImages != 15 || len(status.Users) != 1 {
		t.Errorf("status %+v", status)
	}
	if status.ModelVersion != 1 {
		t.Errorf("model version %d after first train", status.ModelVersion)
	}

	var auth proto.AuthResponse
	mustCall(t, pc, proto.TypeAuthRequest, proto.AuthRequest{Capture: wireCapture(t, 1, 3, 4, 42)}, &auth)
	t.Logf("legit: accepted=%v id=%d score=%.3f dist=%.2f", auth.Accepted, auth.UserID, auth.GateScore, auth.DistanceM)
	if auth.Accepted && auth.UserID != 1 {
		t.Errorf("accepted as wrong user %d", auth.UserID)
	}
	if auth.ModelVersion != 1 {
		t.Errorf("decision from model version %d", auth.ModelVersion)
	}
}

func TestEnrollValidation(t *testing.T) {
	srv := testServer(t, Options{})
	resp := roundTrip(t, serveConn(t, srv), proto.TypeEnrollRequest, "user-0", proto.EnrollRequest{UserID: 0})
	if code := replyCode(resp); code != proto.CodeBadRequest {
		t.Errorf("user 0 answered %s/%q, want bad_request", resp.Type, code)
	}
}

// TestEmptyReferenceRefused: a capture whose reference channels are
// present but empty has no direct path to measure. The enroll is answered
// with an error reply and the connection keeps serving.
func TestEmptyReferenceRefused(t *testing.T) {
	srv := testServer(t, Options{})
	pc := serveConn(t, srv)
	wire := wireCapture(t, 1, 1, 1, 1)
	wire.Reference = make([][]float64, len(wire.Beeps[0]))
	resp := roundTrip(t, pc, proto.TypeEnrollRequest, "empty-ref", proto.EnrollRequest{UserID: 1, Capture: wire})
	if code := replyCode(resp); code != proto.CodeProcess {
		t.Errorf("empty reference answered %s/%q, want %s", resp.Type, code, proto.CodeProcess)
	}
	var status proto.StatusResponse
	mustCall(t, pc, proto.TypeStatusRequest, nil, &status)
	if status.TotalImages != 0 {
		t.Errorf("refused enroll added %d images", status.TotalImages)
	}
}

// TestNonFiniteSampleRefused: a sample block can carry NaN, which JSON
// numbers cannot, so the daemon refuses a body holding one bad_request,
// before it reaches the pipeline, and keeps serving the connection. A
// body that is not JSON at all is refused the same way: the frame layer
// carries it unread, and the handler's decode answers it in band.
func TestNonFiniteSampleRefused(t *testing.T) {
	srv := testServer(t, Options{})
	raw := servePipe(t, srv)
	pc := proto.NewConn(raw)
	block := binary.LittleEndian.AppendUint32(nil, 3)
	for _, d := range []uint32{1, 1, 2} {
		block = binary.LittleEndian.AppendUint32(block, d)
	}
	block = binary.LittleEndian.AppendUint64(block, math.Float64bits(0.5))
	block = binary.LittleEndian.AppendUint64(block, math.Float64bits(math.NaN()))
	beeps := base64.StdEncoding.EncodeToString(block)
	for _, tc := range []struct{ id, body, want string }{
		{"nan", fmt.Sprintf(`{"user_id":1,"capture":{"beeps":%q,"sample_rate":48000}}`, beeps), "NaN"},
		{"truncated", fmt.Sprintf(`{"user_id":1,"capture":{"beeps":%q,"sam`, beeps), "unexpected end of JSON input"},
	} {
		payload := fmt.Appendf(nil, `{"version":%d,"request_id":%q,"user":1,"type":"enroll"}%s`, proto.Version, tc.id, tc.body)
		if _, err := raw.Write(append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)); err != nil {
			t.Fatalf("%s: %v", tc.id, err)
		}
		resp, err := pc.Receive()
		if err != nil {
			t.Fatalf("%s: %v", tc.id, err)
		}
		if code := replyCode(resp); code != proto.CodeBadRequest || resp.RequestID != tc.id ||
			!strings.Contains(proto.ReplyError(resp).Error(), tc.want) {
			t.Errorf("%s body answered %s/%q for %q: %v", tc.id, resp.Type, code, resp.RequestID, proto.ReplyError(resp))
		}
	}
	var status proto.StatusResponse
	mustCall(t, pc, proto.TypeStatusRequest, nil, &status)
	if status.TotalImages != 0 || len(status.Users) != 0 {
		t.Errorf("refused enrolls left status %+v", status)
	}
}

// TestEnrollRejectsMismatchedHint: a router sends an enroll to the shard
// owning its envelope hint, so an enroll whose hint names another user
// than its body would strand that user's images where their
// authentications are never routed. The daemon refuses it bad_request and
// enrolls nothing; a matching hint enrolls as usual.
func TestEnrollRejectsMismatchedHint(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	srv := testServer(t, Options{})
	pc := serveConn(t, srv)
	wire := wireCapture(t, 5, 1, 2, 1)
	enroll := func(reqID string, hint int) *proto.Envelope {
		env, err := proto.NewEnvelope(proto.TypeEnrollRequest, reqID, proto.EnrollRequest{UserID: 5, Capture: wire})
		if err != nil {
			t.Fatal(err)
		}
		env.User = hint
		resp, err := pc.RoundTrip(env)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	if resp := enroll("crossed", 3); replyCode(resp) != proto.CodeBadRequest {
		t.Fatalf("enroll hinted 3 for user 5 answered %s/%q, want bad_request", resp.Type, replyCode(resp))
	}
	if st := srv.Status(); st.TotalImages != 0 || len(st.Users) != 0 {
		t.Fatalf("refused enroll added images: %+v", st)
	}
	if resp := enroll("matched", 5); resp.Type != proto.TypeEnrollResponse {
		t.Fatalf("enroll hinted 5 for user 5 answered %s/%q", resp.Type, replyCode(resp))
	}
	if st := srv.Status(); st.TotalImages != 2 || len(st.Users) != 1 || st.Users[0] != 5 {
		t.Errorf("matched enroll left status %+v", st)
	}
}

// TestVersionMismatchRefused: an envelope of any version but
// proto.Version is answered in band with bad_request — request ID echoed,
// connection kept — and does no work. That includes a frame in the
// version 2 layout, whose body sits inside the envelope object.
func TestVersionMismatchRefused(t *testing.T) {
	srv := testServer(t, Options{})
	raw := servePipe(t, srv)
	pc := proto.NewConn(raw)
	wire := wireCapture(t, 1, 1, 2, 1)
	for _, v := range []int{0, 2, 4} {
		env, err := proto.NewEnvelope(proto.TypeEnrollRequest, fmt.Sprintf("v%d", v),
			proto.EnrollRequest{UserID: 1, Capture: wire, Retrain: true})
		if err != nil {
			t.Fatal(err)
		}
		env.Version = v
		resp, err := pc.RoundTrip(env)
		if err != nil {
			t.Fatalf("version %d: %v", v, err)
		}
		if code := replyCode(resp); code != proto.CodeBadRequest {
			t.Errorf("version %d enroll answered %s/%q, want bad_request", v, resp.Type, code)
		}
		if resp.Version != proto.Version {
			t.Errorf("version %d refusal carries version %d", v, resp.Version)
		}
	}
	// A version 2 client nests the body, its samples JSON numbers, in
	// the envelope object.
	legacy, err := json.Marshal(map[string]any{
		"version": 2, "request_id": "v2-layout", "type": proto.TypeEnrollRequest, "user": 1,
		"body": map[string]any{"user_id": 1, "retrain": true, "capture": map[string]any{
			"beeps": [][][]float64(wire.Beeps), "sample_rate": wire.SampleRate,
			"noise_only": [][]float64(wire.NoiseOnly), "reference": [][]float64(wire.Reference),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write(append(binary.BigEndian.AppendUint32(nil, uint32(len(legacy))), legacy...)); err != nil {
		t.Fatal(err)
	}
	resp, err := pc.Receive()
	if err != nil {
		t.Fatalf("version 2 frame: %v", err)
	}
	if code := replyCode(resp); code != proto.CodeBadRequest || resp.RequestID != "v2-layout" ||
		!strings.Contains(proto.ReplyError(resp).Error(), "version 2 ") {
		t.Errorf("version 2 frame answered %s/%q for %q: %v", resp.Type, code, resp.RequestID, proto.ReplyError(resp))
	}
	// The refusal happens before the handler runs, yet each refused
	// request still leaves a trace carrying its code.
	refused := map[string]bool{}
	for _, tr := range srv.Traces().Recent() {
		if tr.Type == string(proto.TypeEnrollRequest) && tr.Error == proto.CodeBadRequest {
			refused[tr.RequestID] = true
		}
	}
	if !refused["v0"] || !refused["v2"] || !refused["v4"] || !refused["v2-layout"] {
		t.Errorf("traces of refused requests: %v, want v0, v2, v4 and v2-layout", refused)
	}
	if st := srv.Status(); st.TotalImages != 0 || st.Trained {
		t.Errorf("refused enrolls did work: %+v", st)
	}
	if got := srv.Telemetry().Counter("echoimage_registry_trains_started_total", "").Value(); got != 0 {
		t.Errorf("refused enrolls started %d trains", got)
	}
	var status proto.StatusResponse
	mustCall(t, pc, proto.TypeStatusRequest, nil, &status)
}

// TestServeOverTCP drives a client over a real socket through Serve:
// enroll with a queued retrain, a waiting retrain, status, and an unknown
// type answered in band with a stable code, then a clean shutdown.
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

	// Enroll with retrain: the response returns with the retrain queued.
	var enrolled proto.EnrollResponse
	mustCall(t, pc, proto.TypeEnrollRequest, proto.EnrollRequest{
		UserID:  2,
		Capture: wireCapture(t, 2, 1, 6, 1),
		Retrain: true,
	}, &enrolled)
	if !enrolled.RetrainQueued || enrolled.Images != 6 {
		t.Errorf("enroll got %+v, want 6 images and a queued retrain", enrolled)
	}

	// A waiting retrain returns once a model covering the enroll is live.
	var rt proto.RetrainResponse
	mustCall(t, pc, proto.TypeRetrainRequest, proto.RetrainRequest{Wait: true}, &rt)
	if rt.Queued || rt.ModelVersion < 1 {
		t.Errorf("waited retrain got %+v", rt)
	}

	var status proto.StatusResponse
	mustCall(t, pc, proto.TypeStatusRequest, nil, &status)
	if !status.Trained || status.TotalImages != 6 || status.ModelVersion != rt.ModelVersion {
		t.Errorf("status %+v after retrain to v%d", status, rt.ModelVersion)
	}

	// An unknown type yields an error with a stable code, not a dropped
	// connection.
	resp := roundTrip(t, pc, proto.MsgType("bogus"), "bogus-1", nil)
	if code := replyCode(resp); code != proto.CodeUnknownType {
		t.Errorf("bogus request answered %s/%q, want %q", resp.Type, code, proto.CodeUnknownType)
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

	srv := testServer(t, Options{ModelPath: modelPath})
	enrollTrained(t, serveConn(t, srv), 1, wireCapture(t, 1, 1, 8, 1))

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
	var resp proto.AuthResponse
	mustCall(t, serveConn(t, fresh), proto.TypeAuthRequest, proto.AuthRequest{Capture: wireCapture(t, 1, 3, 4, 9)}, &resp)
	t.Logf("restored-model decision: accepted=%v id=%d score=%.3f", resp.Accepted, resp.UserID, resp.GateScore)
	if resp.Accepted && resp.UserID != 1 {
		t.Errorf("restored model misidentified user as %d", resp.UserID)
	}
}

// roundTrip sends one request through proto.Conn.RoundTrip, which
// verifies the request-ID echo, and returns the reply.
func roundTrip(t *testing.T, pc *proto.Conn, msgType proto.MsgType, reqID string, body any) *proto.Envelope {
	t.Helper()
	env, err := proto.NewEnvelope(msgType, reqID, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := pc.RoundTrip(env)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Version != proto.Version {
		t.Fatalf("response version %d, want %d", resp.Version, proto.Version)
	}
	return resp
}

// TestAuthenticateDuringRetrain is the serving-stack liveness proof: with
// a background retrain deliberately blocked in the trainer, parallel
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

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(serveCtx, ln) }()

	// Enroll with retrain: the response must come back immediately with
	// the retrain queued, while the trainer blocks on `release`.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pc := proto.NewConn(conn)
	// Train model v1 (the trainer's first run is not held) so
	// authentication has a live model.
	enrollTrained(t, pc, 1, wireCapture(t, 1, 1, 6, 1))
	resp := roundTrip(t, pc, proto.TypeEnrollRequest, "enroll-1", proto.EnrollRequest{
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
	if !enrolled.RetrainQueued {
		t.Fatalf("enroll got %+v, want queued retrain", enrolled)
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
			env, err := proto.NewEnvelope(proto.TypeAuthRequest, fmt.Sprintf("auth-%d", i), proto.AuthRequest{
				Capture: wireCapture(t, 1, 3, 3, int64(100+i)),
			})
			if err != nil {
				errs <- err
				return
			}
			r, err := proto.NewConn(c).RoundTrip(env)
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
	info := roundTrip(t, pc, proto.TypeModelInfoRequest, "info-1", nil)
	var mi proto.ModelInfoResponse
	if err := proto.DecodeBody(info, &mi); err != nil {
		t.Fatal(err)
	}
	if !mi.Trained || mi.ModelVersion != 2 || mi.Users != 1 || mi.Images != 12 {
		t.Errorf("model info %+v", mi)
	}
}

// TestRetrainMessage drives the retrain message end to end.
func TestRetrainMessage(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	srv := testServer(t, Options{})
	pc := serveConn(t, srv)
	mustCall(t, pc, proto.TypeEnrollRequest, proto.EnrollRequest{
		UserID:  1,
		Capture: wireCapture(t, 1, 1, 6, 1),
	}, nil)

	resp := roundTrip(t, pc, proto.TypeRetrainRequest, "rt-1", proto.RetrainRequest{Wait: true})
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

package daemon

// Chaos tests for the fault-tolerant serving stack: shutdown liveness
// against busy connections, per-request cancellation, bounded-wait
// admission control (load shedding + backoff retry), and mid-frame
// disconnects injected through internal/faultnet. All of them are
// deterministic — faults are injected by explicit byte counts, channel
// holds and context cancellations, never by racing real load — and the
// whole file is meant to run under -race (make race).

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"echoimage/internal/core"
	"echoimage/internal/faultnet"
	"echoimage/internal/proto"
	"echoimage/internal/telemetry"
)

// busyClient keeps a status-request conversation running as fast as the
// daemon answers, until its connection dies. It returns the number of
// completed round trips.
func busyClient(conn net.Conn, done chan<- int) {
	pc := proto.NewConn(conn)
	env, err := proto.NewEnvelope(proto.TypeStatusRequest, "busy", nil)
	n := 0
	for err == nil {
		if _, err = pc.RoundTrip(env); err == nil {
			n++
		}
	}
	done <- n
}

// TestServeConnExitsOnCancelDespiteTraffic is the regression test for the
// shutdown-liveness bug: with an idle deadline configured, every request
// used to re-arm the read deadline and erase the immediate deadline set by
// the cancellation AfterFunc, so a connection that kept completing
// requests ignored shutdown forever. The fixed loop observes ctx before
// (and re-asserts after) each re-arm, so cancellation wins mid-conversation.
func TestServeConnExitsOnCancelDespiteTraffic(t *testing.T) {
	srv := testServer(t, Options{ReadTimeout: time.Minute})
	client, server := net.Pipe()
	defer client.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan struct{})
	go func() {
		srv.loop.ServeConn(ctx, server)
		server.Close()
		close(served)
	}()
	rounds := make(chan int, 1)
	go busyClient(client, rounds)

	// Let the conversation get going, then pull the plug mid-stream.
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("ServeConn kept serving an actively-sending connection after cancellation")
	}
	if n := <-rounds; n == 0 {
		t.Error("client never completed a round trip before shutdown (test raced)")
	}
}

// TestServeShutdownDrainsBusyConnections proves the Serve-level guarantee:
// SIGTERM-style cancellation returns from Serve within the configured
// grace period even while connections are mid-conversation, and the
// drained clients see their connections die rather than hanging.
func TestServeShutdownDrainsBusyConnections(t *testing.T) {
	srv := testServer(t, Options{ReadTimeout: time.Minute, ShutdownGrace: 2 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ctx, ln) }()

	const clients = 3
	rounds := make(chan int, clients)
	for i := 0; i < clients; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		go busyClient(conn, rounds)
	}
	time.Sleep(100 * time.Millisecond)

	start := time.Now()
	cancel()
	select {
	case err := <-serveDone:
		if err != nil {
			t.Errorf("Serve returned %v", err)
		}
	case <-time.After(4 * time.Second):
		t.Fatal("Serve did not drain busy connections within the grace period")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("drain took %v, want well under grace + margin", elapsed)
	}
	total := 0
	for i := 0; i < clients; i++ {
		select {
		case n := <-rounds:
			total += n
		case <-time.After(5 * time.Second):
			t.Fatal("busy client still running after Serve returned")
		}
	}
	if total == 0 {
		t.Error("no client completed a round trip before shutdown (test raced)")
	}
}

// closeProbeListener runs onClose the first time it is closed, before
// the underlying listener closes.
type closeProbeListener struct {
	net.Listener
	once    sync.Once
	onClose func()
}

func (l *closeProbeListener) Close() error {
	l.once.Do(l.onClose)
	return l.Listener.Close()
}

// TestUnhealthyBeforeListenerCloses checks the shutdown order a router's
// prober relies on: by the time cancellation closes the listener, and so
// by the time Serve returns, Healthy already reports the daemon as
// shutting down.
func TestUnhealthyBeforeListenerCloses(t *testing.T) {
	srv := testServer(t, Options{})
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	atClose := make(chan error, 1)
	ln := &closeProbeListener{Listener: tcp, onClose: func() { atClose <- srv.Healthy() }}
	defer ln.Close()
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ctx, ln) }()
	if err := srv.Healthy(); err != nil {
		t.Fatalf("serving daemon unhealthy: %v", err)
	}

	cancel()
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after cancellation")
	}
	if srv.Healthy() == nil {
		t.Error("Healthy reports ok after Serve returned from cancellation")
	}
	if err := <-atClose; err == nil {
		t.Error("Healthy reported ok when the listener closed")
	}
}

// TestRequestTimeoutCancelsPipeline saturates nothing and breaks nothing:
// it configures a request deadline far smaller than capture processing
// and checks that the daemon answers in band with the retryable
// `unavailable` code and counts it. With a 1 ms deadline the request
// expires while its capture body is decoded, before the pipeline starts,
// and the test asserts that no preprocess, ranging or imaging stage was
// observed. So it does not show that the per-request context reaches
// the pipeline: core.TestProcessContextCancelStopsBeforeImaging covers
// cancellation mid-pipeline, and the ctxdiscipline lint rule keeps the
// request's context threaded to it.
func TestRequestTimeoutCancelsPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	srv := testServer(t, Options{RequestTimeout: time.Millisecond})
	client, server := net.Pipe()
	defer client.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		srv.loop.ServeConn(ctx, server)
		server.Close()
	}()

	pc := proto.NewConn(client)
	resp := roundTrip(t, pc, proto.TypeEnrollRequest, "deadline-1", proto.EnrollRequest{
		UserID:  1,
		Capture: wireCapture(t, 1, 1, 4, 3),
	})
	if resp.Type != proto.TypeError {
		t.Fatalf("deadline-bound enroll answered %q, want error", resp.Type)
	}
	var perr proto.ErrorResponse
	if err := proto.DecodeBody(resp, &perr); err != nil {
		t.Fatal(err)
	}
	if perr.Code != proto.CodeUnavailable {
		t.Errorf("error code %q, want %q", perr.Code, proto.CodeUnavailable)
	}
	if !proto.RetryableCode(perr.Code) {
		t.Error("request-deadline error must be retryable")
	}
	if got := srv.Telemetry().Counter("echoimage_daemon_errors_total", "",
		telemetry.L("code", proto.CodeUnavailable)).Value(); got == 0 {
		t.Error("unavailable error counter did not move")
	}
	for _, stage := range []string{core.StagePreprocess, core.StageRanging, core.StageImaging} {
		if got := srv.Telemetry().Histogram("echoimage_pipeline_stage_seconds", "", nil,
			telemetry.L("stage", stage)).Value().Count; got != 0 {
			t.Errorf("stage %s observed %d times, want 0 (request expired before the pipeline)", stage, got)
		}
	}
}

// TestOverloadShedsThenBackoffSucceeds drives the admission-control
// contract end to end: with every capture slot held, a request is shed
// with the stable `overloaded` code within the queue-wait budget (not
// queued forever); once a slot frees, the client's exponential-backoff
// retry — the same policy echoimage-client ships — succeeds.
func TestOverloadShedsThenBackoffSucceeds(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	srv := testServer(t, Options{MaxCaptures: 1, QueueWait: 50 * time.Millisecond})
	client, server := net.Pipe()
	defer client.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		srv.loop.ServeConn(ctx, server)
		server.Close()
	}()
	pc := proto.NewConn(client)
	wire := wireCapture(t, 1, 1, 4, 5)

	// Saturate: hold the only capture slot, as a wedged in-flight capture
	// would.
	srv.captureSem <- struct{}{}

	resp := roundTrip(t, pc, proto.TypeEnrollRequest, "shed-1", proto.EnrollRequest{UserID: 1, Capture: wire})
	if resp.Type != proto.TypeError {
		t.Fatalf("saturated enroll answered %q, want error", resp.Type)
	}
	var perr proto.ErrorResponse
	if err := proto.DecodeBody(resp, &perr); err != nil {
		t.Fatal(err)
	}
	if perr.Code != proto.CodeOverloaded {
		t.Fatalf("error code %q, want %q", perr.Code, proto.CodeOverloaded)
	}
	tel := srv.Telemetry()
	if got := tel.Counter("echoimage_daemon_requests_shed_total", "").Value(); got != 1 {
		t.Errorf("shed counter %d, want 1", got)
	}
	if got := tel.Counter("echoimage_daemon_errors_total", "",
		telemetry.L("code", proto.CodeOverloaded)).Value(); got != 1 {
		t.Errorf("overloaded error counter %d, want 1", got)
	}
	if got := tel.Gauge("echoimage_daemon_capture_queue_depth", "").Value(); got != 0 {
		t.Errorf("queue depth gauge %d after shed, want 0", got)
	}

	// Release the slot and retry with exponential backoff + jitter,
	// mirroring the client's policy. The first retry may still race the
	// release; the sequence must converge well before the attempts run out.
	<-srv.captureSem
	backoff := 25 * time.Millisecond
	var ok bool
	for attempt := 0; attempt < 6; attempt++ {
		resp = roundTrip(t, pc, proto.TypeEnrollRequest, "retry", proto.EnrollRequest{UserID: 1, Capture: wire})
		if resp.Type == proto.TypeEnrollResponse {
			ok = true
			break
		}
		var e proto.ErrorResponse
		if err := proto.DecodeBody(resp, &e); err != nil {
			t.Fatal(err)
		}
		if !proto.RetryableCode(e.Code) {
			t.Fatalf("retry hit non-retryable code %q", e.Code)
		}
		time.Sleep(backoff + backoff/2)
		backoff *= 2
	}
	if !ok {
		t.Fatal("backoff retry never succeeded after the slot freed")
	}
	if got := tel.Gauge("echoimage_daemon_capture_queue_depth", "").Value(); got != 0 {
		t.Errorf("queue depth gauge %d at rest, want 0", got)
	}
}

// TestMidFrameDisconnectDoesNotWedge cuts connections in the middle of an
// enroll frame — the failure a crashing client produces — and proves the
// daemon neither leaks a capture-semaphore slot nor corrupts the next
// connection: with MaxCaptures=1, a single wedged slot would make the
// follow-up enroll shed, and any framing corruption would break its
// round trip.
func TestMidFrameDisconnectDoesNotWedge(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	srv := testServer(t, Options{MaxCaptures: 1, QueueWait: 250 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ctx, ln) }()

	wire := wireCapture(t, 1, 1, 4, 11)
	env, err := proto.NewEnvelope(proto.TypeEnrollRequest, "doomed", proto.EnrollRequest{UserID: 1, Capture: wire})
	if err != nil {
		t.Fatal(err)
	}
	var frame bytes.Buffer
	if err := proto.WriteEnvelope(&frame, env); err != nil {
		t.Fatal(err)
	}

	// Three clients die at different points inside the frame: just past
	// the length prefix, mid-payload, and one byte short of completion.
	for _, cutAt := range []int64{6, int64(frame.Len()) / 2, int64(frame.Len()) - 1} {
		raw, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		fc := faultnet.Wrap(raw, faultnet.Faults{CutAfterWriteBytes: cutAt, WriteChunk: 4096, Seed: cutAt})
		_, werr := fc.Write(frame.Bytes())
		if !errors.Is(werr, faultnet.ErrCut) {
			t.Fatalf("cut at %d: write error %v, want ErrCut", cutAt, werr)
		}
		if got := fc.WroteBytes(); got != cutAt {
			t.Fatalf("cut at %d delivered %d bytes", cutAt, got)
		}
	}

	// The daemon must notice every dead connection (no goroutine parked on
	// a half-frame forever once the FIN arrives).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if srv.Telemetry().Gauge("echoimage_daemon_connections_active", "").Value() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("connections from mid-frame disconnects never closed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(srv.captureSem) != 0 {
		t.Fatalf("%d capture slots wedged by mid-frame disconnects", len(srv.captureSem))
	}

	// A fresh connection gets full service: framing intact, slot free.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pc := proto.NewConn(conn)
	resp := roundTrip(t, pc, proto.TypeEnrollRequest, "clean-1", proto.EnrollRequest{UserID: 1, Capture: wire})
	if resp.Type != proto.TypeEnrollResponse {
		t.Fatalf("post-chaos enroll answered %q, want enroll_result", resp.Type)
	}
	var enrolled proto.EnrollResponse
	if err := proto.DecodeBody(resp, &enrolled); err != nil {
		t.Fatal(err)
	}
	if enrolled.Images != 4 {
		t.Errorf("post-chaos enroll produced %d images, want 4", enrolled.Images)
	}

	cancel()
	select {
	case <-serveDone:
	case <-time.After(15 * time.Second):
		t.Fatal("Serve did not stop")
	}
}

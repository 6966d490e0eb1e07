package daemon

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"testing"

	"echoimage/internal/core"
	"echoimage/internal/proto"
	"echoimage/internal/telemetry"
)

// errCounter reads the daemon's error-code counter for a stable code.
// Registry lookups are idempotent, so this returns the live counter.
func errCounter(srv *Server, code string) uint64 {
	return srv.Telemetry().Counter("echoimage_daemon_errors_total", "", telemetry.L("code", code)).Value()
}

// TestErrorResponsesCountAndEchoRequestID drives every cheap error path
// over a loopback connection and asserts two invariants per request: the
// matching error-code counter moves by exactly one, and the request
// ID comes back on the error envelope.
func TestErrorResponsesCountAndEchoRequestID(t *testing.T) {
	srv := testServer(t, Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go srv.Serve(ctx, ln)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pc := proto.NewConn(conn)

	cases := []struct {
		name     string
		reqID    string
		msgType  proto.MsgType
		body     any
		wantCode string
	}{
		{"unknown type", "rq-unknown", proto.MsgType("bogus"), nil, proto.CodeUnknownType},
		{"invalid user", "rq-user0", proto.TypeEnrollRequest, proto.EnrollRequest{UserID: 0}, proto.CodeBadRequest},
		{"missing body", "rq-nobody", proto.TypeAuthRequest, nil, proto.CodeBadRequest},
		{"untrained auth", "rq-untrained", proto.TypeAuthRequest, proto.AuthRequest{}, proto.CodeNotTrained},
	}
	for _, tc := range cases {
		before := errCounter(srv, tc.wantCode)
		env, err := proto.NewEnvelope(tc.msgType, tc.reqID, tc.body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := pc.RoundTrip(env)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if resp.Type != proto.TypeError {
			t.Fatalf("%s: answered with %q", tc.name, resp.Type)
		}
		if resp.RequestID != tc.reqID {
			t.Errorf("%s: error response request_id %q, want %q", tc.name, resp.RequestID, tc.reqID)
		}
		if resp.Version != proto.Version {
			t.Errorf("%s: error response version %d", tc.name, resp.Version)
		}
		var body proto.ErrorResponse
		if err := proto.DecodeBody(resp, &body); err != nil {
			t.Fatal(err)
		}
		if body.Code != tc.wantCode {
			t.Errorf("%s: code %q, want %q", tc.name, body.Code, tc.wantCode)
		}
		if got := errCounter(srv, tc.wantCode); got != before+1 {
			t.Errorf("%s: counter for %q went %d -> %d, want +1", tc.name, tc.wantCode, before, got)
		}
	}

	// Traces are kept for errored requests too, carrying the error code.
	var found bool
	for _, tr := range srv.Traces().Recent() {
		if tr.RequestID == "rq-untrained" && tr.Error == proto.CodeNotTrained {
			found = true
		}
	}
	if !found {
		t.Error("no trace recorded for the failed authenticate")
	}
}

// metricValue extracts one sample value from a Prometheus exposition.
func metricValue(t *testing.T, text, series string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(series) + ` ([0-9.e+-]+)$`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("series %q not found in exposition:\n%s", series, text)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestMetricsEndToEnd is the acceptance proof for the telemetry
// subsystem: it authenticates through a live daemon over TCP and asserts
// that GET /metrics on the admin handler exposes per-stage pipeline
// histograms, daemon error-code counters and registry retrain counters —
// all moved by the traffic — in valid Prometheus text format.
func TestMetricsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	srv := testServer(t, Options{})
	ctx := context.Background()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	go srv.Serve(serveCtx, ln)

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pc := proto.NewConn(conn)

	// Enroll + waiting retrain so a model is live (one registry train).
	enrollTrained(t, pc, 1, wireCapture(t, 1, 1, 6, 1))

	// One authenticate and one error over the live socket.
	resp := roundTrip(t, pc, proto.TypeAuthRequest, "e2e-auth", proto.AuthRequest{
		Capture: wireCapture(t, 1, 3, 3, 7),
	})
	if resp.Type != proto.TypeAuthResponse {
		t.Fatalf("auth answered with %q", resp.Type)
	}
	if errEnv := roundTrip(t, pc, proto.MsgType("nonsense"), "e2e-err", nil); errEnv.Type != proto.TypeError {
		t.Fatalf("bogus request answered with %q", errEnv.Type)
	}

	// Scrape the admin endpoints exactly as a Prometheus server would.
	admin := httptest.NewServer(telemetry.AdminHandler(telemetry.AdminOptions{
		Registry: srv.Telemetry(),
		Traces:   srv.Traces(),
	}))
	defer admin.Close()
	httpResp, err := http.Get(admin.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(httpResp.Body)
	httpResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)

	// Per-stage pipeline histograms: every stage of the authenticate
	// pipeline ran at least once.
	for _, stage := range []string{
		core.StagePreprocess, core.StageRanging, core.StageImaging,
		core.StageFeatures, core.StageClassify,
	} {
		series := `echoimage_pipeline_stage_seconds_count{stage="` + stage + `"}`
		if v := metricValue(t, text, series); v < 1 {
			t.Errorf("%s = %v, want >= 1", series, v)
		}
	}
	// Daemon request and error counters.
	if v := metricValue(t, text, `echoimage_daemon_requests_total{type="authenticate"}`); v != 1 {
		t.Errorf("authenticate requests %v, want 1", v)
	}
	if v := metricValue(t, text, `echoimage_daemon_errors_total{code="unknown_type"}`); v != 1 {
		t.Errorf("unknown_type errors %v, want 1", v)
	}
	if v := metricValue(t, text, `echoimage_daemon_request_seconds_count{type="authenticate"}`); v != 1 {
		t.Errorf("authenticate latency count %v, want 1", v)
	}
	// Registry retrain counters and version gauge.
	if v := metricValue(t, text, `echoimage_registry_trains_started_total`); v < 1 {
		t.Errorf("trains started %v, want >= 1", v)
	}
	if v := metricValue(t, text, `echoimage_registry_model_version`); v != 1 {
		t.Errorf("model version gauge %v, want 1", v)
	}
	if v := metricValue(t, text, `echoimage_registry_train_seconds_count`); v < 1 {
		t.Errorf("train duration count %v, want >= 1", v)
	}

	// /varz carries the authenticate trace with its stage spans.
	varzResp, err := http.Get(admin.URL + "/varz")
	if err != nil {
		t.Fatal(err)
	}
	varzRaw, err := io.ReadAll(varzResp.Body)
	varzResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Traces []telemetry.TraceRecord `json:"traces"`
	}
	if err := json.Unmarshal(varzRaw, &doc); err != nil {
		t.Fatal(err)
	}
	var authTrace *telemetry.TraceRecord
	for i := range doc.Traces {
		if doc.Traces[i].RequestID == "e2e-auth" {
			authTrace = &doc.Traces[i]
		}
	}
	if authTrace == nil {
		t.Fatal("authenticate trace not in /varz")
	}
	// 3 beeps: preprocess+ranging+imaging once, features+classify per image.
	if len(authTrace.Spans) < 5 {
		t.Errorf("authenticate trace has %d spans: %+v", len(authTrace.Spans), authTrace.Spans)
	}
	stages := make(map[string]bool)
	var spanSum int64
	for _, sp := range authTrace.Spans {
		stages[sp.Stage] = true
		spanSum += sp.DurMicros
	}
	for _, want := range []string{core.StagePreprocess, core.StageRanging, core.StageImaging, core.StageFeatures, core.StageClassify} {
		if !stages[want] {
			t.Errorf("trace missing stage %q", want)
		}
	}
	if authTrace.DurMicros < spanSum {
		t.Errorf("trace total %dµs < span sum %dµs", authTrace.DurMicros, spanSum)
	}
}

package telemetry

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func adminGet(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestAdminEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("echoimage_admin_test_total", "A test counter.", L("kind", "x")).Add(7)
	reg.Histogram("echoimage_admin_test_seconds", "A test histogram.", []float64{1}).Observe(0.5)
	traces := NewTraceLog(4)
	tr := NewTrace("req-9", "authenticate")
	tr.RecordStage("imaging", 3*time.Millisecond)
	traces.Add(tr.Finish("process_failed"))

	srv := httptest.NewServer(AdminHandler(AdminOptions{
		Registry: reg,
		Traces:   traces,
		Varz:     map[string]func() any{"extra": func() any { return map[string]int{"n": 42} }},
	}))
	defer srv.Close()

	// /metrics: Prometheus text with the registered series.
	code, body := adminGet(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"# TYPE echoimage_admin_test_total counter",
		`echoimage_admin_test_total{kind="x"} 7`,
		`echoimage_admin_test_seconds_bucket{le="+Inf"} 1`,
		"echoimage_admin_test_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}

	// /healthz: 200 ok by default.
	code, body = adminGet(t, srv, "/healthz")
	if code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz %d %q", code, body)
	}

	// /varz: JSON document with metrics, traces and extras.
	code, body = adminGet(t, srv, "/varz")
	if code != http.StatusOK {
		t.Fatalf("/varz status %d", code)
	}
	var doc struct {
		UptimeSeconds float64          `json:"uptime_seconds"`
		Metrics       []FamilySnapshot `json:"metrics"`
		Traces        []TraceRecord    `json:"traces"`
		Extra         map[string]int   `json:"extra"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/varz not JSON: %v\n%s", err, body)
	}
	if len(doc.Metrics) != 2 {
		t.Errorf("/varz has %d metric families", len(doc.Metrics))
	}
	if len(doc.Traces) != 1 || doc.Traces[0].RequestID != "req-9" || doc.Traces[0].Error != "process_failed" {
		t.Errorf("/varz traces %+v", doc.Traces)
	}
	if doc.Extra["n"] != 42 {
		t.Errorf("/varz extra %+v", doc.Extra)
	}

	// /debug/pprof: the index and a cheap profile must answer.
	code, _ = adminGet(t, srv, "/debug/pprof/")
	if code != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", code)
	}
	code, _ = adminGet(t, srv, "/debug/pprof/goroutine?debug=1")
	if code != http.StatusOK {
		t.Errorf("/debug/pprof/goroutine status %d", code)
	}
}

func TestAdminHealthzUnhealthy(t *testing.T) {
	srv := httptest.NewServer(AdminHandler(AdminOptions{
		Health: func() error { return errors.New("registry closed") },
	}))
	defer srv.Close()
	code, body := adminGet(t, srv, "/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "registry closed") {
		t.Errorf("/healthz %d %q", code, body)
	}
}

package daemon

import (
	"time"

	"echoimage/internal/core"
	"echoimage/internal/proto"
	"echoimage/internal/serve"
	"echoimage/internal/telemetry"
)

// traceCapacity is how many recent request traces the daemon retains
// for the admin /varz endpoint.
const traceCapacity = 128

// serverMetrics is the daemon's instrumentation: the request loop's
// series plus admission control and the pipeline stages. Every labelled
// series is registered up front, so hot-path updates are map lookups
// over immutable maps plus one atomic op — no locks, no allocation.
type serverMetrics struct {
	serve      serve.Metrics
	queueDepth *telemetry.Gauge
	shedTotal  *telemetry.Counter
	stages     map[string]*telemetry.Histogram
}

// requestTypes are the labelled request-type series; anything else
// (a bogus type answered with unknown_type) lands in the "other" series.
var requestTypes = []string{
	string(proto.TypeEnrollRequest),
	string(proto.TypeAuthRequest),
	string(proto.TypeStatusRequest),
	string(proto.TypeRetrainRequest),
	string(proto.TypeModelInfoRequest),
	string(proto.TypeHandoffRequest),
}

// stageNames are the pipeline stages of internal/core, in order.
var stageNames = []string{
	core.StagePreprocess,
	core.StageRanging,
	core.StageImaging,
	core.StageFeatures,
	core.StageIndexSearch,
	core.StageClassify,
}

func newServerMetrics(tel *telemetry.Registry) serverMetrics {
	m := serverMetrics{
		serve: serve.Metrics{
			ConnsActive: tel.Gauge("echoimage_daemon_connections_active",
				"Currently open client connections."),
			ConnsTotal: tel.Counter("echoimage_daemon_connections_total",
				"Client connections accepted since start."),
			Inflight: tel.Gauge("echoimage_daemon_inflight_requests",
				"Requests currently being handled."),
		},
		queueDepth: tel.Gauge("echoimage_daemon_capture_queue_depth",
			"Capture requests waiting for a processing slot."),
		shedTotal: tel.Counter("echoimage_daemon_requests_shed_total",
			"Capture requests shed with code overloaded because no processing slot freed within the queue-wait budget."),
		stages: make(map[string]*telemetry.Histogram, len(stageNames)),
	}
	m.serve.Requests = tel.CounterSet("echoimage_daemon_requests_total",
		"Requests handled, by protocol message type.", "type", requestTypes...)
	m.serve.Latency = tel.HistogramSet("echoimage_daemon_request_seconds",
		"Request handling latency, by protocol message type.", "type", requestTypes...)
	m.serve.Errors = tel.CounterSet("echoimage_daemon_errors_total",
		"Error responses sent, by stable protocol error code.", "code", proto.Codes...)
	for _, s := range stageNames {
		m.stages[s] = tel.Histogram("echoimage_pipeline_stage_seconds",
			"Authentication pipeline stage latency, per stage.", nil, telemetry.L("stage", s))
	}
	return m
}

// stageRecorder implements core.StageRecorder for one request: it feeds
// the per-stage latency histograms and, when a trace is attached, the
// request's trace spans.
type stageRecorder struct {
	stages map[string]*telemetry.Histogram
	tr     *telemetry.Trace
}

func (r *stageRecorder) RecordStage(stage string, d time.Duration) {
	if h := r.stages[stage]; h != nil {
		h.ObserveDuration(d)
	}
	if r.tr != nil {
		r.tr.RecordStage(stage, d)
	}
}

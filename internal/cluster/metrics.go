package cluster

import (
	"sync"

	"echoimage/internal/proto"
	"echoimage/internal/serve"
	"echoimage/internal/telemetry"
)

// routerMetrics is the router's instrumentation: the request loop's
// series, pre-registered like the daemon's, plus routing and ring state.
// The shard set is dynamic (admin add/remove), so per-shard series are
// created lazily through a small mutex-guarded cache — the lock is per
// first sighting of a shard, not per request.
type routerMetrics struct {
	serve     serve.Metrics
	failovers *telemetry.Counter
	redials   *telemetry.Counter

	partialFanouts  *telemetry.Counter
	handoffUsers    *telemetry.Counter
	handoffFailures *telemetry.Counter
	handoffsActive  *telemetry.Gauge

	ringActive   *telemetry.Gauge
	ringDraining *telemetry.Gauge
	ringDown     *telemetry.Gauge

	tel *telemetry.Registry

	mu            sync.Mutex
	shardRequests map[string]*telemetry.Counter
	shardErrors   map[string]*telemetry.Counter
	shardLatency  map[string]*telemetry.Histogram
}

// routedTypes are the request types the router serves; anything else is
// answered unknown_type and lands in the "other" series.
var routedTypes = []string{
	string(proto.TypeEnrollRequest),
	string(proto.TypeAuthRequest),
	string(proto.TypeStatusRequest),
	string(proto.TypeRetrainRequest),
	string(proto.TypeModelInfoRequest),
}

func newRouterMetrics(tel *telemetry.Registry) *routerMetrics {
	m := &routerMetrics{
		serve: serve.Metrics{
			ConnsActive: tel.Gauge("echoimage_router_connections_active",
				"Currently open client connections."),
			ConnsTotal: tel.Counter("echoimage_router_connections_total",
				"Client connections accepted since start."),
			Inflight: tel.Gauge("echoimage_router_inflight_requests",
				"Requests currently being routed."),
		},
		failovers: tel.Counter("echoimage_router_failovers_total",
			"Requests retried on a later ring candidate after a retryable shard failure."),
		redials: tel.Counter("echoimage_router_redials_total",
			"Round trips retried on a fresh connection to the same shard after a reused pooled connection failed."),
		partialFanouts: tel.Counter("echoimage_router_partial_fanouts_total",
			"Read fan-outs (status/model_info) answered degraded because a member shard was down or failed."),
		handoffUsers: tel.Counter("echoimage_router_handoff_users_total",
			"Users successfully handed off from a draining shard to its ring successor."),
		handoffFailures: tel.Counter("echoimage_router_handoff_user_failures_total",
			"Per-user handoff attempts that failed (the drain reports failed until a re-drain succeeds)."),
		handoffsActive: tel.Gauge("echoimage_router_handoffs_active",
			"Drain handoff pipelines currently running."),
		ringActive: tel.Gauge("echoimage_router_ring_shards",
			"Ring membership by serving state.", telemetry.L("state", string(StateActive))),
		ringDraining: tel.Gauge("echoimage_router_ring_shards",
			"Ring membership by serving state.", telemetry.L("state", string(StateDraining))),
		ringDown: tel.Gauge("echoimage_router_ring_shards",
			"Ring membership by serving state.", telemetry.L("state", string(StateDown))),
		tel:           tel,
		shardRequests: make(map[string]*telemetry.Counter),
		shardErrors:   make(map[string]*telemetry.Counter),
		shardLatency:  make(map[string]*telemetry.Histogram),
	}
	m.serve.Requests = tel.CounterSet("echoimage_router_requests_total",
		"Requests routed, by protocol message type.", "type", routedTypes...)
	m.serve.Latency = tel.HistogramSet("echoimage_router_request_seconds",
		"End-to-end routing latency, by protocol message type.", "type", routedTypes...)
	m.serve.Errors = tel.CounterSet("echoimage_router_errors_total",
		"Error responses returned to clients, by stable protocol error code.", "code", proto.Codes...)
	return m
}

func (m *routerMetrics) shardRequestCounter(shard string) *telemetry.Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.shardRequests[shard]
	if c == nil {
		c = m.tel.Counter("echoimage_router_shard_requests_total",
			"Round trips attempted against a shard, by shard ID.", telemetry.L("shard", shard))
		m.shardRequests[shard] = c
	}
	return c
}

func (m *routerMetrics) shardErrorCounter(shard string) *telemetry.Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.shardErrors[shard]
	if c == nil {
		c = m.tel.Counter("echoimage_router_shard_errors_total",
			"Failed round trips against a shard (transport failures and retryable refusals), by shard ID.",
			telemetry.L("shard", shard))
		m.shardErrors[shard] = c
	}
	return c
}

func (m *routerMetrics) shardLatencyHist(shard string) *telemetry.Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.shardLatency[shard]
	if h == nil {
		h = m.tel.Histogram("echoimage_router_shard_request_seconds",
			"Upstream round-trip latency, by shard ID.", nil, telemetry.L("shard", shard))
		m.shardLatency[shard] = h
	}
	return h
}

// setRingGauges publishes the membership counts by state.
func (m *routerMetrics) setRingGauges(shards []Shard) {
	var active, draining, down int
	for _, s := range shards {
		switch s.State() {
		case StateActive:
			active++
		case StateDraining:
			draining++
		case StateDown:
			down++
		}
	}
	m.ringActive.Set(int64(active))
	m.ringDraining.Set(int64(draining))
	m.ringDown.Set(int64(down))
}

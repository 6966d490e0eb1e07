package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"echoimage/internal/proto"
	"echoimage/internal/retry"
	"echoimage/internal/serve"
	"echoimage/internal/telemetry"
)

// Options tunes the router.
type Options struct {
	// Vnodes is the virtual-node count per shard; 0 means DefaultVnodes.
	Vnodes int
	// Candidates is how many distinct ring candidates a user-routed
	// request may try (owner + failover); 0 means DefaultCandidates.
	Candidates int
	// Retry is the per-request failover backoff applied between
	// candidate attempts. The zero value fails over immediately with a
	// budget of Candidates-1 retries.
	Retry retry.Policy
	// DialTimeout bounds each upstream dial. 0 means DefaultDialTimeout.
	DialTimeout time.Duration
	// UpstreamTimeout bounds one upstream round trip (send + receive).
	// 0 disables.
	UpstreamTimeout time.Duration
	// ReadTimeout is the per-message idle deadline on client
	// connections. 0 disables.
	ReadTimeout time.Duration
	// WriteTimeout bounds each client response write. 0 disables.
	WriteTimeout time.Duration
	// Telemetry receives the router's metrics; nil builds a private
	// registry, still readable via Router.Telemetry.
	Telemetry *telemetry.Registry
	// Logf receives operational logging; nil silences it.
	Logf func(format string, args ...any)
}

// Defaults for the routing knobs.
const (
	// DefaultCandidates is the failover width: the owner plus two
	// fallbacks. Wider adds little — a third fallback only matters when
	// three shards fail inside one retry budget.
	DefaultCandidates = 3
	// DefaultDialTimeout bounds upstream dials when Options.DialTimeout
	// is zero; dead shards must fail fast enough to stay inside an
	// interactive retry budget.
	DefaultDialTimeout = 2 * time.Second
)

// Router terminates client connections speaking the daemon protocol and
// forwards each request to the owning shard, preserving the envelope —
// version, request ID and body cross unchanged in both directions.
type Router struct {
	table *Table
	opts  Options
	logf  func(string, ...any)
	tel   *telemetry.Registry
	met   *routerMetrics
	loop  *serve.Server

	ring atomic.Pointer[Ring]

	// lifeCtx is the router's lifetime: drain handoff pipelines run under
	// it (they outlive the admin request that triggers them) and Close
	// cancels it.
	lifeCtx context.Context
	stop    context.CancelFunc

	poolMu sync.Mutex
	pools  map[string]*proto.Pool // guarded by poolMu

	hoMu     sync.Mutex
	handoffs map[string]*Handoff // guarded by hoMu
	// hoWg counts running handoff pipelines so Close can await them:
	// a cancelled-but-still-running pipeline touching the shard table
	// after teardown is a use-after-close.
	hoWg sync.WaitGroup
}

// New builds a router over an empty shard table; register shards with
// AddShard (or the admin surface) before serving.
func New(opts Options) *Router {
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	tel := opts.Telemetry
	if tel == nil {
		tel = telemetry.NewRegistry()
	}
	if opts.Candidates <= 0 {
		opts.Candidates = DefaultCandidates
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = DefaultDialTimeout
	}
	if opts.Retry.Attempts <= 0 {
		opts.Retry.Attempts = opts.Candidates - 1
	}
	r := &Router{
		table:    NewTable(),
		opts:     opts,
		logf:     logf,
		tel:      tel,
		met:      newRouterMetrics(tel),
		pools:    make(map[string]*proto.Pool),
		handoffs: make(map[string]*Handoff),
	}
	r.loop = &serve.Server{
		Handle:       r.route,
		Metrics:      r.met.serve,
		ReadTimeout:  opts.ReadTimeout,
		WriteTimeout: opts.WriteTimeout,
		Logf:         func(format string, args ...any) { logf("cluster: "+format, args...) },
	}
	//echoimage:lint-ignore ctxdiscipline drain handoffs are rooted at the router's lifetime, not a request: they outlive the admin POST that starts them and stop on Close
	r.lifeCtx, r.stop = context.WithCancel(context.Background())
	r.ring.Store(BuildRing(nil, opts.Vnodes))
	return r
}

// Close cancels the router's background work (drain handoff pipelines),
// waits for it to finish, and closes every idle upstream connection.
// Client connections being served are not interrupted; Serve's own
// shutdown handles those.
func (r *Router) Close() {
	r.stop()
	r.hoWg.Wait()
	r.poolMu.Lock()
	pools := make([]*proto.Pool, 0, len(r.pools))
	for _, p := range r.pools {
		pools = append(pools, p)
	}
	r.pools = make(map[string]*proto.Pool)
	r.poolMu.Unlock()
	for _, p := range pools {
		p.CloseAll()
	}
}

// Table exposes the shard table (prober, admin surface, tests).
func (r *Router) Table() *Table { return r.table }

// Telemetry exposes the metric registry the router records into.
func (r *Router) Telemetry() *telemetry.Registry { return r.tel }

// AddShard registers a shard and rebuilds the ring.
func (r *Router) AddShard(id, addr, adminAddr string) error {
	if err := r.table.Add(id, addr, adminAddr); err != nil {
		return err
	}
	r.rebuild()
	r.logf("cluster: shard %s added (%s)", id, addr)
	return nil
}

// DrainShard marks a shard draining — no new captures, in-flight
// requests complete — and starts its handoff pipeline: the shard's users
// are flushed and streamed to their post-removal ring successors in the
// background (progress on the admin rebalance surface). The ring is
// untouched — ownership moves only on Remove, which is refused until the
// handoff completes.
func (r *Router) DrainShard(id string) error {
	if err := r.table.Drain(id); err != nil {
		return err
	}
	r.met.setRingGauges(r.table.Snapshot())
	r.logf("cluster: shard %s draining", id)
	r.startHandoff(id)
	return nil
}

// RemoveShard deletes a shard, rebuilds the ring (reassigning its users)
// and closes its idle connections. Unless force is set, removal is
// refused while the shard's users have not been handed off to their
// ring successors — removing an undrained or mid-handoff shard would
// silently lose every enrollment it holds. force exists for shards that
// are already gone (crashed, unreachable) where a handoff is impossible.
func (r *Router) RemoveShard(id string, force bool) error {
	if !force {
		if err := r.removable(id); err != nil {
			return err
		}
	}
	if err := r.table.Remove(id); err != nil {
		return err
	}
	r.rebuild()
	r.poolMu.Lock()
	p := r.pools[id]
	delete(r.pools, id)
	r.poolMu.Unlock()
	if p != nil {
		p.CloseAll()
	}
	r.logf("cluster: shard %s removed", id)
	return nil
}

// removable checks that the shard's state has been handed off, so
// removing it loses nothing.
func (r *Router) removable(id string) error {
	if _, ok := r.table.Get(id); !ok {
		return fmt.Errorf("cluster: unknown shard %q", id)
	}
	r.hoMu.Lock()
	h := r.handoffs[id]
	var status HandoffStatus
	var done, total int
	var herr string
	if h != nil {
		status, done, total, herr = h.Status, h.UsersDone, h.UsersTotal, h.Error
	}
	r.hoMu.Unlock()
	switch {
	case h == nil:
		return fmt.Errorf("cluster: shard %q has not been drained; drain first so its users hand off (or remove with force, losing them)", id)
	case status == HandoffRunning:
		return fmt.Errorf("cluster: shard %q handoff in progress (%d/%d users); wait for completion or remove with force", id, done, total)
	case status == HandoffFailed:
		return fmt.Errorf("cluster: shard %q handoff failed (%s); drain again to retry or remove with force", id, herr)
	}
	return nil
}

// MarkHealth records a health observation (the prober's callback) and
// refreshes the ring-state gauges.
func (r *Router) MarkHealth(id string, healthy bool) {
	if r.table.SetHealthy(id, healthy) {
		r.met.setRingGauges(r.table.Snapshot())
		state := "healthy"
		if !healthy {
			state = "down"
		}
		r.logf("cluster: shard %s %s", id, state)
	}
}

// rebuild recomputes the ring from current membership and refreshes the
// gauges.
func (r *Router) rebuild() {
	r.ring.Store(BuildRing(r.table.IDs(), r.opts.Vnodes))
	r.met.setRingGauges(r.table.Snapshot())
}

// shardPool returns (creating if needed) the connection pool for a
// shard. The pool is keyed by shard ID and pinned to the address the
// shard had at creation; Remove+Add is the way to move a shard.
func (r *Router) shardPool(id, addr string) *proto.Pool {
	r.poolMu.Lock()
	defer r.poolMu.Unlock()
	p := r.pools[id]
	if p == nil {
		p = proto.NewPool(addr, r.opts.DialTimeout, proto.DefaultMaxIdle)
		r.pools[id] = p
	}
	return p
}

// coded pairs a failure with its stable protocol code, so refusals the
// router synthesizes carry the code vocabulary clients already branch on.
func coded(code string, err error) *serve.Error { return &serve.Error{Code: code, Err: err} }

// retryableErr reports whether a candidate attempt may fail over: any
// transport-level failure (dial, send, receive — the connection state is
// unknown, but the next candidate is a different process) or an in-band
// refusal with a retryable code.
func retryableErr(err error) bool {
	var se *serve.Error
	if errors.As(err, &se) {
		return proto.RetryableCode(se.Code)
	}
	return true
}

// Serve accepts client connections until the context is cancelled, on
// the same loop as echoimaged, so SIGTERM semantics match across the
// serving tier: in-flight requests finish, and connections still open
// after serve.DefaultGrace are force-closed.
func (r *Router) Serve(ctx context.Context, ln net.Listener) error {
	return r.loop.Serve(ctx, ln)
}

// route dispatches one request: user-keyed types go to the owning shard
// with failover, model-wide types without a user hint fan out to every
// shard and aggregate. The response envelope from a shard is forwarded
// verbatim (request_id preserved by the shard's own echo). The router
// reads only the envelope; it never decodes a request body. It is the
// serving loop's handler; the router keeps no request traces.
func (r *Router) route(ctx context.Context, env *proto.Envelope, _ *telemetry.Trace) (*proto.Envelope, error) {
	switch env.Type {
	case proto.TypeEnrollRequest, proto.TypeAuthRequest:
		if env.User == 0 {
			return nil, coded(proto.CodeBadRequest,
				fmt.Errorf("%s request carries no user routing hint (set envelope field \"user\")", env.Type))
		}
		return r.forwardUser(ctx, env, env.User, true)
	case proto.TypeRetrainRequest, proto.TypeStatusRequest, proto.TypeModelInfoRequest:
		if env.User != 0 {
			return r.forwardUser(ctx, env, env.User, false)
		}
		return r.fanout(ctx, env)
	default:
		return nil, coded(proto.CodeUnknownType, fmt.Errorf("unknown message type %q", env.Type))
	}
}

// forwardUser sends the request to the user's owning shard, failing over
// across ring candidates on retryable errors. newCapture marks requests
// that start work on a shard (enroll, authenticate): those skip draining
// candidates, while read-mostly requests (status, model_info, retrain
// with an explicit user hint) may still consult a draining owner.
//
// Failover deliberately maps a fallback shard's not_trained to
// unavailable: the fallback answering "no model" means the owner — who
// has the model — is unreachable, a transient cluster condition, not a
// permanent fact about the user. The owner's own not_trained passes
// through unchanged.
func (r *Router) forwardUser(ctx context.Context, env *proto.Envelope, user int, newCapture bool) (*proto.Envelope, error) {
	ring := r.ring.Load()
	candidates := ring.Candidates(user, r.opts.Candidates)
	if len(candidates) == 0 {
		return nil, coded(proto.CodeUnavailable, fmt.Errorf("no shards registered"))
	}
	attempt := 0
	var resp *proto.Envelope
	// Exhausting the candidate list ends the loop immediately — backing
	// off inside the router buys nothing once every candidate was tried;
	// the client's own retry policy owns the longer horizon.
	canRetry := func(err error) bool {
		return !errors.Is(err, errExhausted) && retryableErr(err)
	}
	err := retry.Do(ctx, r.opts.Retry, canRetry, func() error {
		for ; attempt < len(candidates); attempt++ {
			id := candidates[attempt]
			shard, ok := r.table.Get(id)
			if !ok {
				continue
			}
			switch shard.State() {
			case StateDown:
				continue
			case StateDraining:
				if newCapture {
					continue
				}
			}
			fallback := id != candidates[0]
			out, rerr := r.roundTrip(ctx, &shard, env, r.opts.UpstreamTimeout)
			if rerr != nil {
				r.met.shardErrorCounter(id).Inc()
				if retryableErr(rerr) {
					r.met.failovers.Inc()
					attempt++
					return rerr
				}
				return rerr
			}
			if fallback {
				if code := proto.ErrorCode(proto.ReplyError(out)); code == proto.CodeNotTrained {
					r.met.shardErrorCounter(id).Inc()
					r.met.failovers.Inc()
					attempt++
					return coded(proto.CodeUnavailable,
						fmt.Errorf("user %d's owning shard is unreachable and fallback %s holds no model", user, id))
				}
			}
			resp = out
			return nil
		}
		return fmt.Errorf("no live candidate shard for user %d (candidates %v): %w", user, candidates, errExhausted)
	}, func(n int, err error, d time.Duration) {
		r.logf("cluster: user %d attempt %d failed (%v); next candidate in %v", user, n, err, d)
	})
	if err != nil {
		if !errors.Is(err, errExhausted) && !retryableErr(err) {
			return nil, err
		}
		return nil, coded(proto.CodeUnavailable, fmt.Errorf("user %d: %w", user, err))
	}
	return resp, nil
}

// errExhausted marks a failover loop that ran out of live candidates;
// it surfaces to the client as a retryable unavailable refusal but is
// not itself retried inside the router.
var errExhausted = errors.New("candidate shards exhausted")

// roundTrip performs one request/response exchange against a shard over
// a pooled connection, bounded by timeout (0 means none). Any transport
// failure retires the connection and returns a plain (non-coded, hence
// retryable) error. In-band error responses are classified: retryable
// codes surface as coded *serve.Error values so failover engages,
// everything else is returned as the shard's verbatim response.
//
// A transport error on a *reused* pooled connection gets one same-shard
// redial before the failure propagates: the daemon may have closed the
// connection while it sat idle, which indicts that connection, not the
// shard — failing over to a ring successor on it would burn a failover
// candidate (and its model-less not_trained mapping) on a healthy owner.
// Fresh-dial failures and in-band refusals skip the redial: those really
// are the shard speaking.
func (r *Router) roundTrip(ctx context.Context, shard *Shard, env *proto.Envelope, timeout time.Duration) (*proto.Envelope, error) {
	p := r.shardPool(shard.ID, shard.Addr)
	u, reused, err := p.Get(ctx)
	if err != nil {
		return nil, err
	}
	resp, err := r.exchange(ctx, p, u, shard, env, timeout)
	var se *serve.Error
	if err != nil && reused && !errors.As(err, &se) && ctx.Err() == nil {
		r.met.redials.Inc()
		u2, derr := p.Dial(ctx)
		if derr != nil {
			return nil, err // the shard is unreachable; report the original failure
		}
		resp, err = r.exchange(ctx, p, u2, shard, env, timeout)
	}
	return resp, err
}

// exchange runs one round trip on a checked-out upstream: returned to the
// pool on clean completion, retired on any transport error — including a
// reply that does not echo the request ID, after which the connection's
// framing cannot be trusted. A timeout of 0 clears the deadline a pooled
// connection kept from its last use. Cancelling ctx expires the
// deadline, so a shard that accepts a request and never answers cannot
// pin the caller (Serve's shutdown, Close's handoff wait) even when no
// timeout is set.
func (r *Router) exchange(ctx context.Context, p *proto.Pool, u *proto.PoolConn, shard *Shard, env *proto.Envelope, timeout time.Duration) (*proto.Envelope, error) {
	start := time.Now()
	var deadline time.Time
	if timeout > 0 {
		deadline = start.Add(timeout)
	}
	u.SetDeadline(deadline)
	stop := context.AfterFunc(ctx, func() { u.SetDeadline(time.Now()) })
	r.met.shardRequestCounter(shard.ID).Inc()
	resp, err := u.RoundTrip(env)
	expired := !stop()
	r.met.shardLatencyHist(shard.ID).ObserveDuration(time.Since(start))
	if err != nil {
		u.Close()
		return nil, fmt.Errorf("cluster: round trip to shard %s: %w", shard.ID, err)
	}
	if expired {
		u.Close() // its deadline is already in the past
	} else {
		p.Put(u)
	}
	if code := proto.ErrorCode(proto.ReplyError(resp)); proto.RetryableCode(code) {
		return nil, coded(code, fmt.Errorf("shard %s refused: %s", shard.ID, code))
	}
	return resp, nil
}

// fanout forwards a model-wide request to every non-down shard and
// aggregates the responses. Draining shards are included — reading
// status from a shard being decommissioned is exactly what an operator
// wants during a drain.
//
// Reads (status, model_info) degrade rather than fail: the union over
// whichever shards answered is returned with Degraded set whenever any
// member shard was skipped (down) or failed, so a caller can always tell
// a complete cluster view from a partial one. Writes (retrain) stay
// strict — a partial retrain must not report success.
func (r *Router) fanout(ctx context.Context, env *proto.Envelope) (*proto.Envelope, error) {
	shards := r.table.Snapshot()
	var live []Shard
	skipped := 0
	for _, s := range shards {
		if s.State() != StateDown {
			live = append(live, s)
		} else {
			skipped++
		}
	}
	if len(live) == 0 {
		return nil, coded(proto.CodeUnavailable, fmt.Errorf("no live shards"))
	}
	type result struct {
		shard string
		resp  *proto.Envelope
		err   error
	}
	results := make([]result, len(live))
	var wg sync.WaitGroup
	for i := range live {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := r.roundTrip(ctx, &live[i], env, r.opts.UpstreamTimeout)
			results[i] = result{shard: live[i].ID, resp: resp, err: err}
		}(i)
	}
	wg.Wait()

	read := env.Type == proto.TypeStatusRequest || env.Type == proto.TypeModelInfoRequest
	var ok []*proto.Envelope
	var firstErr error
	failed := 0
	for _, res := range results {
		switch {
		case res.err != nil:
			r.met.shardErrorCounter(res.shard).Inc()
			failed++
			if firstErr == nil {
				firstErr = res.err
			}
		case res.resp.Type == proto.TypeError:
			// A non-retryable in-band refusal counts as a failed member:
			// fatal for writes, a degraded-marking for reads.
			failed++
			if firstErr == nil {
				code := proto.ErrorCode(proto.ReplyError(res.resp))
				firstErr = coded(code, fmt.Errorf("shard %s: %s", res.shard, code))
			}
		default:
			ok = append(ok, res.resp)
		}
	}
	if len(ok) == 0 {
		if firstErr != nil {
			if !retryableErr(firstErr) {
				return nil, firstErr
			}
			return nil, coded(proto.CodeUnavailable, fmt.Errorf("fanout %s: %w", env.Type, firstErr))
		}
		return nil, coded(proto.CodeInternal, fmt.Errorf("fanout %s: no responses", env.Type))
	}
	if firstErr != nil && !read {
		if !retryableErr(firstErr) {
			return nil, firstErr
		}
		return nil, coded(proto.CodeUnavailable,
			fmt.Errorf("fanout %s: partial failure: %w", env.Type, firstErr))
	}
	degraded := skipped > 0 || failed > 0
	if degraded && read {
		r.met.partialFanouts.Inc()
		r.logf("cluster: %s fan-out degraded: %d down, %d failed of %d members", env.Type, skipped, failed, len(shards))
	}
	return r.aggregate(env, ok, degraded)
}

// aggregate merges fan-out responses into one client answer; degraded
// marks a read aggregate built from a subset of member shards.
func (r *Router) aggregate(req *proto.Envelope, resps []*proto.Envelope, degraded bool) (*proto.Envelope, error) {
	var body any
	switch req.Type {
	case proto.TypeStatusRequest:
		agg := proto.StatusResponse{Users: []int{}, Degraded: degraded}
		seen := make(map[int]bool)
		for _, resp := range resps {
			var s proto.StatusResponse
			if err := proto.DecodeBody(resp, &s); err != nil {
				return nil, coded(proto.CodeInternal, err)
			}
			for _, u := range s.Users {
				if !seen[u] {
					seen[u] = true
					agg.Users = append(agg.Users, u)
				}
			}
			agg.TotalImages += s.TotalImages
			agg.Trained = agg.Trained || s.Trained
			if s.ModelVersion > agg.ModelVersion {
				agg.ModelVersion = s.ModelVersion
			}
		}
		sort.Ints(agg.Users)
		body = agg
	case proto.TypeRetrainRequest:
		agg := proto.RetrainResponse{}
		for _, resp := range resps {
			var rt proto.RetrainResponse
			if err := proto.DecodeBody(resp, &rt); err != nil {
				return nil, coded(proto.CodeInternal, err)
			}
			agg.Queued = agg.Queued || rt.Queued
			if rt.ModelVersion > agg.ModelVersion {
				agg.ModelVersion = rt.ModelVersion
			}
		}
		body = agg
	case proto.TypeModelInfoRequest:
		agg := proto.ModelInfoResponse{Degraded: degraded}
		for _, resp := range resps {
			var mi proto.ModelInfoResponse
			if err := proto.DecodeBody(resp, &mi); err != nil {
				return nil, coded(proto.CodeInternal, err)
			}
			if !mi.Trained {
				continue
			}
			agg.Trained = true
			agg.Users += mi.Users
			agg.Images += mi.Images
			agg.IndexSize += mi.IndexSize
			if mi.ModelVersion > agg.ModelVersion {
				agg.ModelVersion = mi.ModelVersion
			}
			if mi.TrainMillis > agg.TrainMillis {
				agg.TrainMillis = mi.TrainMillis
			}
			if mi.TrainedAt > agg.TrainedAt {
				agg.TrainedAt = mi.TrainedAt
			}
			agg.Loaded = agg.Loaded || mi.Loaded
			agg.Extended = agg.Extended || mi.Extended
			if agg.LastError == "" {
				agg.LastError = mi.LastError
			}
		}
		body = agg
	default:
		// Single-response types never reach aggregation.
		return resps[0], nil
	}
	return proto.NewEnvelope(resps[0].Type, req.RequestID, body)
}

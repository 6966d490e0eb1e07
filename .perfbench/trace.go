package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"time"

	"echoimage/internal/array"
	"echoimage/internal/cluster"
	"echoimage/internal/core"
	"echoimage/internal/proto"
	"echoimage/internal/registry"
)

// Layer span names. Each is the benchmark's own span around its call into
// that layer's public function.
const (
	spanRequest = "request"        // the traced request, client encode to client decode
	spanEncode  = "proto.encode"   // json.Marshal(AuthRequest) + proto.WriteEnvelope
	spanHop     = "cluster.hop"    // in-process Router round trip minus the direct one
	spanDaemon  = "daemon.request" // round trip to the owning echoimaged
	spanDecode  = "proto.decode"   // proto.Read + proto.DecodeBody of the frame
	stagePrefix = "core."          // + a core.Stage* name, from core.StageRecorder
)

// span is one timed interval of a traced request. Spans replayed outside
// the request's own interval (the daemon's stages, the direct round trip
// behind a routed request) carry only a duration.
type span struct {
	name   string
	req    int
	id     int
	parent int // -1 for a request's root
	dur    time.Duration
}

// tracer keeps spans in memory until the run ends, and the durations of
// operations outside any request (registry trains).
type tracer struct {
	spans    []span
	retrains []float64 // full Registry.Retrain runs, ms
	extends  []float64 // Registry.Retrain runs that extended the model, ms
}

func (t *tracer) add(name string, req, parent int, d time.Duration) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, req: req, id: id, parent: parent, dur: d})
	return id
}

// selfTimes returns, per request, each layer's self time: its spans'
// durations minus their children's. The root's self time is the
// request's unaccounted remainder. It fails unless every span hangs off
// its own request's tree, so self times always sum to the root.
func (t *tracer) selfTimes() (map[int]map[string]time.Duration, error) {
	self := map[int]map[string]time.Duration{}
	roots := map[int]time.Duration{}
	for _, s := range t.spans {
		if self[s.req] == nil {
			self[s.req] = map[string]time.Duration{}
		}
		self[s.req][s.name] += s.dur
		if s.parent < 0 {
			if _, dup := roots[s.req]; dup {
				return nil, fmt.Errorf("request %d has two roots", s.req)
			}
			roots[s.req] = s.dur
			continue
		}
		if s.parent >= s.id || t.spans[s.parent].req != s.req {
			return nil, fmt.Errorf("span %s of request %d has a parent outside its request", s.name, s.req)
		}
		self[s.req][t.spans[s.parent].name] -= s.dur
	}
	for req, layers := range self {
		root, ok := roots[req]
		if !ok {
			return nil, fmt.Errorf("request %d has no root span", req)
		}
		var sum time.Duration
		for _, d := range layers {
			sum += d
		}
		if sum != root {
			return nil, fmt.Errorf("request %d: layer self times sum to %v, end to end is %v", req, sum, root)
		}
	}
	return self, nil
}

// stageRecorder turns core.StageRecorder callbacks into spans under parent.
type stageRecorder struct {
	t           *tracer
	req, parent int
}

func (r *stageRecorder) RecordStage(stage string, d time.Duration) {
	r.t.add(stagePrefix+stage, r.req, r.parent, d)
}

// frameConn sends pre-encoded request frames on one connection.
type frameConn struct {
	conn net.Conn
	r    *bufio.Reader
}

func dialFrames(addr string) (*frameConn, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &frameConn{conn: conn, r: bufio.NewReader(conn)}, nil
}

func (f *frameConn) roundTrip(frame []byte) (*proto.Envelope, time.Duration, error) {
	start := time.Now()
	if err := f.conn.SetDeadline(start.Add(callTimeout)); err != nil {
		return nil, 0, err
	}
	if _, err := f.conn.Write(frame); err != nil {
		return nil, 0, err
	}
	resp, err := proto.Read(f.r)
	return resp, time.Since(start), err
}

// replica is an in-process copy of one shard's model, trained from the
// same enrollment captures in the same order, against which the daemon's
// work on a request is replayed layer by layer.
type replica struct {
	reg  *registry.Registry
	addr string // the real shard
	conn *frameConn
}

// tracedRun sets the tier up once, measures the untraced solo latency and
// the shed ratio under load, then traces one pass of requests: the
// benchmark encodes each, sends it through the real tier (through an
// in-process router on routed workloads), and replays the daemon's
// decode, pipeline and classifier on in-process replicas of the shard
// models, recording a span around every call.
func tracedRun(cfg config) (*result, error) {
	w := cfg.w
	in, err := render(w, cfg.seed)
	if err != nil {
		return nil, err
	}
	l := newLedger()
	t, _, err := setUp(cfg.bin, w, in, l)
	if err != nil {
		return nil, err
	}
	defer t.stop()
	solo, err := soloPhase(t.entry(), in, l, repeat(in.order, cfg.passes(w.solo)))
	if err != nil {
		return nil, err
	}
	loadGaps := gaps(w.rate, len(in.order), rand.New(rand.NewSource(cfg.seed)))
	if _, err := loadedPhase(t.entry(), in, l, in.order, loadGaps, nproc()); err != nil {
		return nil, err
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sys, err := newSystem()
	if err != nil {
		return nil, err
	}
	tr := &tracer{}
	reps, err := buildReplicas(ctx, t, in, sys, tr)
	defer func() {
		for _, r := range reps {
			r.close()
		}
	}()
	if err != nil {
		return nil, err
	}
	owner := func(user int) *replica { return reps[0] }
	var via *frameConn
	if w.shards > 0 {
		// The router names shards s1..sN in -shard order, as set-up does.
		ids := make([]string, len(reps))
		byID := map[string]*replica{}
		for k, rep := range reps {
			ids[k] = shardID(k)
			byID[ids[k]] = rep
		}
		ring := cluster.BuildRing(ids, cluster.DefaultVnodes)
		owner = func(user int) *replica { return byID[ring.Owner(user)] }
		stopRouter, addr, err := startRouter(ctx, reps)
		if err != nil {
			return nil, err
		}
		defer stopRouter()
		if via, err = dialFrames(addr); err != nil {
			return nil, err
		}
		defer via.conn.Close()
	}

	p := l.phase("traced")
	var mib []float64
	for k, i := range in.order {
		size, err := traceRequest(ctx, tr, k, &in.probes[i], i, sys, owner(in.probes[i].subject), via, l)
		l.record(p, err)
		if err != nil {
			return nil, fmt.Errorf("traced probe %d: %w", i, err)
		}
		mib = append(mib, float64(size)/(1<<20))
	}
	if err := registryDeltas(ctx, in, sys, reps, owner, tr); err != nil {
		return nil, err
	}
	return layerReport(w, l, tr, solo, median(mib))
}

// newSystem builds the pipeline echoimaged builds with its default flags.
func newSystem() (*core.System, error) {
	cfg := core.DefaultConfig()
	cfg.GridRows, cfg.GridCols = 36, 36
	cfg.GridSpacingM = 0.05
	return core.NewSystem(cfg, array.ReSpeaker())
}

func (r *replica) close() {
	r.reg.Close()
	if r.conn != nil {
		r.conn.conn.Close()
	}
}

// buildReplicas trains an in-process replica of every shard that owns
// users: the shard's enrollment captures go through the pipeline here, in
// the order set-up sent them, and one timed Registry.Retrain fits the
// model. It returns the replicas built so far even on error, for the
// caller to close.
func buildReplicas(ctx context.Context, t *topology, in *inputs, sys *core.System, tr *tracer) ([]*replica, error) {
	var reps []*replica
	for k, d := range t.shards {
		users, err := shardUsers(d.addr)
		if err != nil {
			return reps, err
		}
		rep := &replica{reg: registry.New(core.DefaultAuthConfig(), registry.Options{}), addr: d.addr}
		reps = append(reps, rep)
		if rep.conn, err = dialFrames(d.addr); err != nil {
			return reps, err
		}
		for _, e := range in.enroll {
			if !contains(users, e.subject) {
				continue
			}
			res, err := sys.ProcessRecordedContext(ctx, wireCapture(&e.wire), e.wire.NoiseOnly, nil)
			if err != nil {
				return reps, fmt.Errorf("replica %d: process subject %d: %w", k+1, e.subject, err)
			}
			if err := rep.reg.AddImages(e.subject, res.Images); err != nil {
				return reps, err
			}
		}
		if len(users) > 0 {
			if err := timedRetrain(ctx, rep.reg, tr, false); err != nil {
				return reps, fmt.Errorf("replica %d: %w", k+1, err)
			}
		}
	}
	return reps, nil
}

func shardUsers(addr string) ([]int, error) {
	c, err := dial(addr, "status")
	if err != nil {
		return nil, err
	}
	defer c.close()
	var st proto.StatusResponse
	if err := c.call(proto.TypeStatusRequest, 0, struct{}{}, proto.TypeStatusResponse, &st); err != nil {
		return nil, err
	}
	return st.Users, nil
}

func wireCapture(w *proto.CaptureWire) *core.Capture {
	return &core.Capture{Beeps: w.Beeps, SampleRate: w.SampleRate, Reference: w.Reference}
}

// timedRetrain runs one blocking Registry.Retrain as its own traced
// operation and checks whether the registry extended the model.
func timedRetrain(ctx context.Context, reg *registry.Registry, tr *tracer, wantExtend bool) error {
	start := time.Now()
	if err := reg.Retrain(ctx); err != nil {
		return fmt.Errorf("retrain: %w", err)
	}
	d := ms(time.Since(start))
	if got := reg.Snapshot().Info.Extended; got != wantExtend {
		return fmt.Errorf("retrain extended=%v, want %v", got, wantExtend)
	}
	if wantExtend {
		tr.extends = append(tr.extends, d)
	} else {
		tr.retrains = append(tr.retrains, d)
	}
	return nil
}

// startRouter serves an in-process router in front of the real shards.
func startRouter(ctx context.Context, reps []*replica) (func(), string, error) {
	r := cluster.New(cluster.Options{UpstreamTimeout: callTimeout})
	for k, rep := range reps {
		if err := r.AddShard(shardID(k), rep.addr, ""); err != nil {
			r.Close()
			return nil, "", err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.Close()
		return nil, "", err
	}
	ctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = r.Serve(ctx, ln) // returns nil once ctx is cancelled
	}()
	return func() {
		cancel()
		<-done
		r.Close()
	}, ln.Addr().String(), nil
}

// traceRequest traces one request for probe i and returns its frame size.
func traceRequest(ctx context.Context, tr *tracer, req int, pr *probe, i int, sys *core.System, rep *replica, via *frameConn, l *ledger) (int, error) {
	start := time.Now()
	body, err := json.Marshal(proto.AuthRequest{Capture: pr.wire})
	if err != nil {
		return 0, err
	}
	env := &proto.Envelope{Version: proto.Version, Type: proto.TypeAuthRequest, RequestID: fmt.Sprintf("trace-%d", req), User: pr.subject, Body: body}
	var buf bytes.Buffer
	if err := proto.WriteEnvelope(&buf, env); err != nil {
		return 0, err
	}
	frame := buf.Bytes()
	encoded := time.Since(start)

	conn := rep.conn
	if via != nil {
		conn = via
	}
	resp, rt, err := conn.roundTrip(frame)
	if err != nil {
		return 0, err
	}
	var got proto.AuthResponse
	if err := checkReply(env, resp, proto.TypeAuthResponse, &got); err != nil {
		return 0, err
	}
	if err := l.check(i, &got); err != nil {
		return 0, err
	}
	root := tr.add(spanRequest, req, -1, time.Since(start))
	tr.add(spanEncode, req, root, encoded)
	direct := rt
	if via != nil {
		// The hop is what the router adds to a direct round trip to the
		// shard that owns the user.
		var (
			dresp *proto.Envelope
			dgot  proto.AuthResponse
		)
		if dresp, direct, err = rep.conn.roundTrip(frame); err != nil {
			return 0, err
		}
		if err := checkReply(env, dresp, proto.TypeAuthResponse, &dgot); err != nil {
			return 0, err
		}
		if err := l.check(i, &dgot); err != nil {
			return 0, err
		}
		tr.add(spanHop, req, root, rt-direct)
	}
	daemon := tr.add(spanDaemon, req, root, direct)
	return len(frame), replayDaemon(ctx, tr, req, daemon, frame, sys, rep, &got)
}

// replayDaemon repeats the daemon's work on a frame, layer by layer, as
// children of the daemon span, and checks the replica decides as the
// shard did.
func replayDaemon(ctx context.Context, tr *tracer, req, parent int, frame []byte, sys *core.System, rep *replica, want *proto.AuthResponse) error {
	start := time.Now()
	env, err := proto.Read(bytes.NewReader(frame))
	if err != nil {
		return err
	}
	var ar proto.AuthRequest
	if err := proto.DecodeBody(env, &ar); err != nil {
		return err
	}
	tr.add(spanDecode, req, parent, time.Since(start))
	rec := &stageRecorder{t: tr, req: req, parent: parent}
	res, err := sys.ProcessRecordedContext(ctx, wireCapture(&ar.Capture), ar.Capture.NoiseOnly, rec)
	if err != nil {
		return err
	}
	snap := rep.reg.Snapshot()
	if snap == nil {
		return fmt.Errorf("replica of %s has no model", rep.addr)
	}
	dec, err := snap.Auth.AuthenticateMajorityRecorded(res.Images, rec)
	if err != nil {
		return err
	}
	if dec.Accepted != want.Accepted || dec.UserID != want.UserID {
		return fmt.Errorf("replica decided accepted=%v user=%d, shard decided accepted=%v user=%d", dec.Accepted, dec.UserID, want.Accepted, want.UserID)
	}
	return nil
}

// registryDeltas times the registry's two training paths on the
// replicas: a full retrain over unchanged enrollment, and, per newcomer,
// an extension of its owner's model.
func registryDeltas(ctx context.Context, in *inputs, sys *core.System, reps []*replica, owner func(int) *replica, tr *tracer) error {
	for _, rep := range reps {
		if rep.reg.Snapshot() == nil {
			continue
		}
		if err := timedRetrain(ctx, rep.reg, tr, false); err != nil {
			return err
		}
	}
	for _, e := range in.newcomers {
		res, err := sys.ProcessRecordedContext(ctx, wireCapture(&e.wire), e.wire.NoiseOnly, nil)
		if err != nil {
			return fmt.Errorf("process newcomer %d: %w", e.subject, err)
		}
		rep := owner(e.subject)
		if rep.reg.Snapshot() == nil {
			continue
		}
		if err := rep.reg.AddImages(e.subject, res.Images); err != nil {
			return err
		}
		if err := timedRetrain(ctx, rep.reg, tr, true); err != nil {
			return fmt.Errorf("newcomer %d: %w", e.subject, err)
		}
	}
	return nil
}

// layerReport prints the per-layer table and returns the per-layer
// metrics: each layer's p50 self time over the traced requests.
func layerReport(w workload, l *ledger, tr *tracer, solo sample, mib float64) (*result, error) {
	self, err := tr.selfTimes()
	if err != nil {
		return nil, err
	}
	counts := map[string]int{}
	byLayer := map[string][]float64{}
	var e2e, daemonRT []float64
	for _, s := range tr.spans {
		counts[s.name]++
		switch s.name {
		case spanRequest:
			e2e = append(e2e, ms(s.dur))
		case spanDaemon:
			daemonRT = append(daemonRT, ms(s.dur))
		}
	}
	for _, layers := range self {
		for name, d := range layers {
			byLayer[name] = append(byLayer[name], ms(d))
		}
	}
	p50 := func(name string) float64 {
		if v := byLayer[name]; len(v) > 0 {
			return median(v)
		}
		return 0
	}
	l.mu.Lock()
	shed := ratio{hits: l.overload, base: l.attempted}
	l.mu.Unlock()

	r := &report{}
	r.line("workload %s traced: %d requests, traced end-to-end p50 %.1f ms, untraced solo p50 %.1f ms (n=%d)",
		w.name, len(e2e), median(e2e), solo.median(), len(solo))
	r.line("%-22s %9s %6s", "layer", "self p50", "spans")
	names := make([]string, 0, len(byLayer))
	for name := range byLayer {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		label := name
		switch name {
		case spanRequest:
			label = "unaccounted"
		case spanDaemon:
			label = "daemon.unaccounted"
		}
		r.line("%-22s %9.2f %6d", label, p50(name), counts[name])
	}
	r.line("every request's layer self times plus its unaccounted remainders sum to its traced end-to-end time")
	r.line("registry: retrain n=%d p50 %.1f ms, extend n=%d p50 %.1f ms", len(tr.retrains), median(tr.retrains), len(tr.extends), median(tr.extends))
	r.line("request frame %.2f MiB; overloaded replies %d of %d attempts", mib, shed.hits, shed.base)
	r.phases(l)
	r.print()

	metrics := map[string]metric{
		"proto.request_mib":     {mib, "MiB"},
		"proto.encode_ms":       {p50(spanEncode), "ms"},
		"proto.decode_ms":       {p50(spanDecode), "ms"},
		"cluster.hop_ms":        {p50(spanHop), "ms"},
		"daemon.request_ms":     {median(daemonRT), "ms"},
		"daemon.unaccounted_ms": {p50(spanDaemon), "ms"},
		"daemon.shed_ratio":     {shed.value(), "ratio"},
		"registry.retrain_ms":   {median(tr.retrains), "ms"},
		"registry.extend_ms":    {median(tr.extends), "ms"},
		"registry.extend_share": {median(tr.extends) / median(tr.retrains), "ratio"},
		"unaccounted_ms":        {p50(spanRequest), "ms"},
		"trace.request_ms":      {median(e2e), "ms"},
		"trace.overhead_ms":     {median(e2e) - solo.median(), "ms"},
	}
	for _, stage := range []string{core.StagePreprocess, core.StageRanging, core.StageImaging, core.StageFeatures, core.StageIndexSearch, core.StageClassify} {
		metrics[stagePrefix+stage+"_ms"] = metric{p50(stagePrefix + stage), "ms"}
	}
	res := &result{Metrics: metrics}
	return finish(res, l, len(e2e) > 0 && len(tr.retrains) > 0 && len(tr.extends) > 0), nil
}

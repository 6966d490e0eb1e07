// Package daemon is the transport layer of the EchoImage authentication
// service: framing, per-connection deadlines, bounded-concurrency capture
// processing and request dispatch over the protocol of internal/proto.
// All model state — enrollment pools, the live classifier, retrain
// scheduling and persistence — lives in internal/registry; the daemon
// only routes requests to it, so a retrain never blocks an authenticate.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"echoimage/internal/core"
	"echoimage/internal/proto"
	"echoimage/internal/registry"
	"echoimage/internal/serve"
	"echoimage/internal/telemetry"
)

// Options tunes the transport layer.
type Options struct {
	// ModelPath, when set, is written (atomically, by the registry
	// worker) after every successful retrain.
	ModelPath string
	// StateDir, when set, is the shard-local per-user state directory:
	// handoff exports/imports flush user blobs there and RestoreState
	// reloads them after a restart, so a drained or crashed shard's
	// enrollments survive.
	StateDir string
	// MaxCaptures bounds concurrent capture processing (the CPU-heavy
	// ranging + imaging stage). 0 means GOMAXPROCS.
	MaxCaptures int
	// ReadTimeout is the per-message idle deadline: a connection that
	// sends no complete request for this long is dropped. 0 disables.
	ReadTimeout time.Duration
	// WriteTimeout bounds each response write. 0 disables.
	WriteTimeout time.Duration
	// RequestTimeout bounds the handling of a single request: the
	// per-request context passed into the sensing pipeline expires after
	// this long, stopping ranging/imaging mid-flight and answering
	// in-band with code `unavailable`. 0 disables.
	RequestTimeout time.Duration
	// QueueWait bounds how long a capture request may wait for a free
	// processing slot before being shed with code `overloaded`. 0 means
	// DefaultQueueWait; negative sheds immediately when saturated.
	QueueWait time.Duration
	// ShutdownGrace is how long Serve waits, after cancellation, for
	// in-flight connections to finish their current request before
	// force-closing them. 0 means serve.DefaultGrace.
	ShutdownGrace time.Duration
	// Train overrides the registry training function (tests).
	Train registry.TrainFunc
	// Telemetry receives the daemon's and registry's runtime metrics
	// (request counters, latency and pipeline-stage histograms, error
	// codes, retrain churn). Nil builds a private registry, still
	// readable via Server.Telemetry — instrumentation is always on, it
	// is only exposition that is optional.
	Telemetry *telemetry.Registry
}

// DefaultQueueWait bounds the capture-slot wait when Options.QueueWait is
// zero. Proximity authentication is interactive; a request that cannot
// start processing within this budget is better answered `overloaded`
// now than queued into uselessness.
const DefaultQueueWait = 2 * time.Second

// Server is the daemon transport. Construct with New or NewWithOptions;
// methods are safe for concurrent connections.
type Server struct {
	sys        *core.System
	reg        *registry.Registry
	loop       *serve.Server
	requestTO  time.Duration
	queueWait  time.Duration
	captureSem chan struct{}
	tel        *telemetry.Registry
	met        serverMetrics
	traces     *telemetry.TraceLog
	stopping   atomic.Bool
}

// NewWithOptions builds a server around a sensing pipeline; logf may be
// nil to silence logging. Call Close when done to stop the registry's
// retrain worker.
func NewWithOptions(sys *core.System, authCfg core.AuthConfig, logf func(string, ...any), opts Options) *Server {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	maxCap := opts.MaxCaptures
	if maxCap <= 0 {
		maxCap = runtime.GOMAXPROCS(0)
	}
	tel := opts.Telemetry
	if tel == nil {
		tel = telemetry.NewRegistry()
	}
	queueWait := opts.QueueWait
	if queueWait == 0 {
		queueWait = DefaultQueueWait
	}
	s := &Server{
		sys: sys,
		reg: registry.New(authCfg, registry.Options{
			ModelPath: opts.ModelPath,
			StateDir:  opts.StateDir,
			Train:     opts.Train,
			Logf:      logf,
			Telemetry: tel,
		}),
		requestTO:  opts.RequestTimeout,
		queueWait:  queueWait,
		captureSem: make(chan struct{}, maxCap),
		tel:        tel,
		met:        newServerMetrics(tel),
		traces:     telemetry.NewTraceLog(traceCapacity),
	}
	s.loop = &serve.Server{
		Handle:       s.handle,
		Metrics:      s.met.serve,
		Traces:       s.traces,
		ReadTimeout:  opts.ReadTimeout,
		WriteTimeout: opts.WriteTimeout,
		Grace:        opts.ShutdownGrace,
		Logf:         func(format string, args ...any) { logf("daemon: "+format, args...) },
	}
	return s
}

// Registry exposes the model registry (status inspection, tests).
func (s *Server) Registry() *registry.Registry { return s.reg }

// Telemetry exposes the metric registry the daemon records into, for
// serving /metrics and /varz on an admin listener.
func (s *Server) Telemetry() *telemetry.Registry { return s.tel }

// Traces exposes the ring of recent per-request pipeline traces.
func (s *Server) Traces() *telemetry.TraceLog { return s.traces }

// Close stops the background retrain worker, cancelling any in-flight
// train. In-flight connections are not interrupted.
func (s *Server) Close() {
	s.stopping.Store(true)
	s.reg.Close()
}

// Healthy reports whether the daemon should receive traffic; it is the
// Health hook for the admin listener's /healthz, which the cluster
// router's prober polls. A shutting-down daemon answers unhealthy the
// moment cancellation is observed — before the connection drain finishes
// — so routers stop sending new work while in-flight requests complete.
func (s *Server) Healthy() error {
	if s.stopping.Load() {
		return fmt.Errorf("daemon: shutting down")
	}
	return nil
}

// Serve accepts connections until the context is cancelled or the
// listener fails; the shared loop of internal/serve drains them within
// Options.ShutdownGrace of the cancellation. The loop sees the
// cancellation only after Healthy answers unhealthy, so /healthz already
// fails when the listener closes.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	loopCtx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	defer cancel()
	stop := context.AfterFunc(ctx, func() {
		s.stopping.Store(true)
		cancel()
	})
	defer stop()
	return s.loop.Serve(loopCtx, ln)
}

// coded pairs a failure with its stable protocol code.
func coded(code string, err error) *serve.Error { return &serve.Error{Code: code, Err: err} }

// handle is the loop's handler: it dispatches one request and returns
// the response envelope, or an error carrying a stable code for the
// in-band error reply. The request runs under its own context (the
// connection's, capped by Options.RequestTimeout, so a slow or abandoned
// request stops burning pipeline CPU) with a stage recorder feeding both
// the shared stage histograms and the request's trace.
func (s *Server) handle(ctx context.Context, env *proto.Envelope, tr *telemetry.Trace) (*proto.Envelope, error) {
	var cancel context.CancelFunc
	if s.requestTO > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.requestTO)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	rec := &stageRecorder{stages: s.met.stages, tr: tr}
	switch env.Type {
	case proto.TypeEnrollRequest:
		var req proto.EnrollRequest
		if err := proto.DecodeBody(env, &req); err != nil {
			return nil, coded(proto.CodeBadRequest, err)
		}
		// A router sends the enroll to the hinted user's shard; enrolling
		// another user there would strand that user's images on a shard
		// their authentications are never routed to.
		if env.User != 0 && env.User != req.UserID {
			return nil, coded(proto.CodeBadRequest,
				fmt.Errorf("enroll routed as user %d carries user %d", env.User, req.UserID))
		}
		resp, err := s.enroll(ctx, &req, rec)
		if err != nil {
			return nil, err
		}
		return proto.NewEnvelope(proto.TypeEnrollResponse, env.RequestID, resp)
	case proto.TypeAuthRequest:
		var req proto.AuthRequest
		if err := proto.DecodeBody(env, &req); err != nil {
			return nil, coded(proto.CodeBadRequest, err)
		}
		resp, err := s.authenticate(ctx, &req, rec)
		if err != nil {
			return nil, err
		}
		return proto.NewEnvelope(proto.TypeAuthResponse, env.RequestID, resp)
	case proto.TypeStatusRequest:
		return proto.NewEnvelope(proto.TypeStatusResponse, env.RequestID, s.Status())
	case proto.TypeRetrainRequest:
		var req proto.RetrainRequest
		if len(env.Body) > 0 {
			if err := proto.DecodeBody(env, &req); err != nil {
				return nil, coded(proto.CodeBadRequest, err)
			}
		}
		resp, err := s.retrain(ctx, &req)
		if err != nil {
			return nil, err
		}
		return proto.NewEnvelope(proto.TypeRetrainResponse, env.RequestID, resp)
	case proto.TypeModelInfoRequest:
		return proto.NewEnvelope(proto.TypeModelInfoResponse, env.RequestID, s.ModelInfo())
	case proto.TypeHandoffRequest:
		var req proto.HandoffRequest
		if err := proto.DecodeBody(env, &req); err != nil {
			return nil, coded(proto.CodeBadRequest, err)
		}
		resp, err := s.handoff(&req)
		if err != nil {
			return nil, err
		}
		return proto.NewEnvelope(proto.TypeHandoffResponse, env.RequestID, resp)
	default:
		return nil, coded(proto.CodeUnknownType, fmt.Errorf("unknown message type %q", env.Type))
	}
}

// process runs the sensing pipeline on a capture under the concurrency
// semaphore, so a burst of connections cannot oversubscribe the imaging
// worker pools. Admission is bounded-wait: a request that cannot get a
// processing slot within the queue-wait budget is shed with the stable
// `overloaded` code instead of queueing without limit, keeping tail
// latency bounded under saturation (the client retries with backoff).
func (s *Server) process(ctx context.Context, wire *proto.CaptureWire, rec core.StageRecorder) (*core.ProcessResult, error) {
	select {
	case s.captureSem <- struct{}{}:
	case <-ctx.Done():
		return nil, coded(proto.CodeUnavailable, ctx.Err())
	default:
		s.met.queueDepth.Inc()
		var waitCh <-chan time.Time
		if s.queueWait > 0 {
			timer := time.NewTimer(s.queueWait)
			defer timer.Stop()
			waitCh = timer.C
		} else {
			closed := make(chan time.Time)
			close(closed)
			waitCh = closed
		}
		select {
		case s.captureSem <- struct{}{}:
			s.met.queueDepth.Dec()
		case <-waitCh:
			s.met.queueDepth.Dec()
			s.met.shedTotal.Inc()
			return nil, coded(proto.CodeOverloaded,
				fmt.Errorf("capture queue full: no processing slot within %v", s.queueWait))
		case <-ctx.Done():
			s.met.queueDepth.Dec()
			return nil, coded(proto.CodeUnavailable, ctx.Err())
		}
	}
	defer func() { <-s.captureSem }()
	cap := &core.Capture{Beeps: wire.Beeps, SampleRate: wire.SampleRate, Reference: wire.Reference}
	res, err := s.sys.ProcessRecordedContext(ctx, cap, wire.NoiseOnly, rec)
	if err != nil {
		if ctx.Err() != nil {
			// Shutdown or request deadline: the pipeline was cancelled
			// mid-flight, not broken — answer retryable, not process_failed.
			return nil, coded(proto.CodeUnavailable, fmt.Errorf("request cancelled: %w", err))
		}
		return nil, coded(proto.CodeProcess, fmt.Errorf("process capture: %w", err))
	}
	return res, nil
}

// enroll adds a capture to a user's enrollment pool and, when the request
// asks for it, queues a retrain on the registry worker.
func (s *Server) enroll(ctx context.Context, req *proto.EnrollRequest, rec core.StageRecorder) (*proto.EnrollResponse, error) {
	if req.UserID <= 0 {
		return nil, coded(proto.CodeBadRequest, fmt.Errorf("user ID %d must be positive", req.UserID))
	}
	res, err := s.process(ctx, &req.Capture, rec)
	if err != nil {
		return nil, err
	}
	if err := s.reg.AddImages(req.UserID, res.Images); err != nil {
		return nil, coded(proto.CodeUnavailable, err)
	}
	resp := &proto.EnrollResponse{
		UserID:    req.UserID,
		Images:    len(res.Images),
		DistanceM: res.Distance.UserM,
	}
	if req.Retrain {
		if err := s.reg.RequestRetrain(); err != nil {
			return nil, coded(proto.CodeUnavailable, err)
		}
		resp.RetrainQueued = true
	}
	stats := s.reg.Stats()
	resp.TotalUsers = len(stats.Users)
	resp.TotalImages = stats.Images
	return resp, nil
}

// authenticate runs a capture through the live model snapshot. It never
// waits on training: the previous model answers until the registry swaps
// in the next one.
func (s *Server) authenticate(ctx context.Context, req *proto.AuthRequest, rec core.StageRecorder) (*proto.AuthResponse, error) {
	snap := s.reg.Snapshot()
	if snap == nil {
		return nil, coded(proto.CodeNotTrained, fmt.Errorf("no trained model: enroll users with retrain=true first"))
	}
	res, err := s.process(ctx, &req.Capture, rec)
	if err != nil {
		return nil, err
	}
	decision, err := snap.Auth.AuthenticateMajorityRecorded(res.Images, rec)
	if err != nil {
		return nil, coded(proto.CodeInternal, fmt.Errorf("authenticate: %w", err))
	}
	return &proto.AuthResponse{
		Accepted:     decision.Accepted,
		UserID:       decision.UserID,
		GateScore:    decision.GateScore,
		DistanceM:    res.Distance.UserM,
		Images:       len(res.Images),
		ModelVersion: snap.Info.Version,
	}, nil
}

// retrain serves the retrain message.
func (s *Server) retrain(ctx context.Context, req *proto.RetrainRequest) (*proto.RetrainResponse, error) {
	if req.Wait {
		if err := s.reg.Retrain(ctx); err != nil {
			return nil, coded(proto.CodeTrain, fmt.Errorf("retrain: %w", err))
		}
	} else if err := s.reg.RequestRetrain(); err != nil {
		return nil, coded(proto.CodeUnavailable, err)
	}
	resp := &proto.RetrainResponse{Queued: !req.Wait}
	if snap := s.reg.Snapshot(); snap != nil {
		resp.ModelVersion = snap.Info.Version
	}
	return resp, nil
}

// handoff serves the administrative handoff message, moving one user's
// shard-local state in (install a blob from a draining peer) or out
// (flush and return this shard's blob for the user). Errors map to the
// stable codes the router's drain pipeline acts on: a malformed or
// conflicting blob and an export of an unknown user are permanent
// (bad_request), a closing registry is retryable (unavailable).
func (s *Server) handoff(req *proto.HandoffRequest) (*proto.HandoffResponse, error) {
	if req.UserID <= 0 && req.Export {
		return nil, coded(proto.CodeBadRequest, fmt.Errorf("handoff export: user ID %d must be positive", req.UserID))
	}
	switch {
	case req.Export && len(req.State) > 0:
		return nil, coded(proto.CodeBadRequest, fmt.Errorf("handoff carries both export and state"))
	case req.Export:
		blob, images, err := s.reg.FlushUser(req.UserID)
		if err != nil {
			if errors.Is(err, registry.ErrClosed) {
				return nil, coded(proto.CodeUnavailable, err)
			}
			return nil, coded(proto.CodeBadRequest, err)
		}
		return &proto.HandoffResponse{UserID: req.UserID, State: blob, Images: images}, nil
	case len(req.State) > 0:
		id, images, imported, err := s.reg.ImportUser(req.State)
		if err != nil {
			if errors.Is(err, registry.ErrClosed) {
				return nil, coded(proto.CodeUnavailable, err)
			}
			return nil, coded(proto.CodeBadRequest, err)
		}
		if req.UserID != 0 && id != req.UserID {
			return nil, coded(proto.CodeBadRequest,
				fmt.Errorf("handoff addressed to user %d carries state of user %d", req.UserID, id))
		}
		resp := &proto.HandoffResponse{UserID: id, Images: images, Imported: imported}
		if imported {
			// Converge the model in the background; the mover may also issue
			// an explicit blocking retrain for a deterministic finish.
			if err := s.reg.RequestRetrain(); err == nil {
				resp.RetrainQueued = true
			}
		}
		return resp, nil
	default:
		return nil, coded(proto.CodeBadRequest, fmt.Errorf("handoff carries neither export nor state"))
	}
}

// RestoreState reloads per-user state blobs from the configured state
// directory into the enrollment store and, when anything was restored,
// queues a retrain so the model converges to cover the restored users.
// It returns how many users were restored; a partially failed restore
// still loads the healthy blobs.
func (s *Server) RestoreState() (int, error) {
	restored, err := s.reg.RestoreState()
	if restored > 0 {
		if rerr := s.reg.RequestRetrain(); rerr != nil && err == nil {
			err = rerr
		}
	}
	return restored, err
}

// LoadModel installs a previously saved model. Enrollment pools are not
// part of the model; subsequent retrains need fresh enrollment captures.
func (s *Server) LoadModel(r io.Reader) error {
	auth, err := core.LoadAuthenticator(r)
	if err != nil {
		return err
	}
	s.reg.Install(auth)
	return nil
}

// Status reports the daemon state from atomic snapshots only — it never
// contends with enrollment, training or persistence.
func (s *Server) Status() proto.StatusResponse {
	stats := s.reg.Stats()
	resp := proto.StatusResponse{
		Users:       stats.Users,
		TotalImages: stats.Images,
	}
	if resp.Users == nil {
		resp.Users = []int{}
	}
	if snap := s.reg.Snapshot(); snap != nil {
		resp.Trained = true
		resp.ModelVersion = snap.Info.Version
	}
	return resp
}

// ModelInfo reports per-version metadata of the live model.
func (s *Server) ModelInfo() proto.ModelInfoResponse {
	var resp proto.ModelInfoResponse
	if snap := s.reg.Snapshot(); snap != nil {
		resp.Trained = true
		resp.ModelVersion = snap.Info.Version
		resp.Users = snap.Info.Users
		resp.Images = snap.Info.Images
		resp.TrainMillis = snap.Info.TrainDuration.Milliseconds()
		resp.TrainedAt = snap.Info.TrainedAt.UTC().Format(time.RFC3339)
		resp.Loaded = snap.Info.Loaded
		resp.Extended = snap.Info.Extended
		resp.IndexSize = snap.Info.IndexSize
	}
	if err := s.reg.LastError(); err != nil {
		resp.LastError = err.Error()
	}
	return resp
}

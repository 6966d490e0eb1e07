// Package serve is the server half of the framed protocol of
// internal/proto, shared by echoimaged and echoimage-router: the accept
// loop with its bounded shutdown drain, and the per-connection request
// loop with its deadlines, version check, in-band error replies and
// request metrics. A tier supplies its handler and its series; what a
// request means is the handler's business, how it crosses a connection
// is this package's.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"echoimage/internal/proto"
	"echoimage/internal/telemetry"
)

// DefaultGrace bounds the post-cancellation connection drain when
// Server.Grace is zero.
const DefaultGrace = 10 * time.Second

// Error pairs a failure with the stable protocol code its in-band reply
// carries. A handler error without one in its chain is answered
// proto.CodeInternal.
type Error struct {
	Code string
	Err  error
}

func (e *Error) Error() string { return e.Err.Error() }
func (e *Error) Unwrap() error { return e.Err }

func coded(code string, err error) *Error { return &Error{Code: code, Err: err} }

// Metrics is the loop's instrumentation. Each tier registers it under
// its own series names; Requests and Latency are labelled by request
// type, Errors by stable error code.
type Metrics struct {
	ConnsActive *telemetry.Gauge
	ConnsTotal  *telemetry.Counter
	Inflight    *telemetry.Gauge
	Requests    *telemetry.CounterSet
	Latency     *telemetry.HistogramSet
	Errors      *telemetry.CounterSet
}

// Server runs the protocol's request loop around a handler. Set the
// fields before the first Serve or ServeConn; a Server is safe for
// concurrent connections.
type Server struct {
	// Handle answers one request that passed the version check. A
	// non-nil error is answered in band with its code (see Error) and
	// the request ID echoed; the connection stays up. tr is the request's
	// trace when Traces is set, nil otherwise.
	Handle func(ctx context.Context, env *proto.Envelope, tr *telemetry.Trace) (*proto.Envelope, error)
	// Metrics receives the connection and request series.
	Metrics Metrics
	// Traces, when set, receives one trace per request, sealed with the
	// code of its error reply ("" on success).
	Traces *telemetry.TraceLog
	// ReadTimeout is the per-message idle deadline: a connection that
	// sends no complete request for this long is dropped. 0 disables.
	ReadTimeout time.Duration
	// WriteTimeout bounds each response write. 0 disables.
	WriteTimeout time.Duration
	// Grace is how long Serve waits, after cancellation, for connections
	// to finish their current request before force-closing them. 0 means
	// DefaultGrace.
	Grace time.Duration
	// Logf receives operational logging; it must be set.
	Logf func(format string, args ...any)

	mu    sync.Mutex
	conns map[net.Conn]struct{} // guarded by mu
}

// Serve accepts connections until ctx is cancelled or the listener
// fails. On cancellation it closes the listener, lets each connection
// finish its current request (ServeConn observes the cancellation before
// reading another), and force-closes any connection still open after the
// grace period, so Serve returns within about Grace of the cancellation
// even when a peer never reads its reply.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	var wg sync.WaitGroup
	stop := context.AfterFunc(ctx, func() { ln.Close() })
	defer stop()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				s.drain(&wg)
				return nil
			}
			wg.Wait()
			return fmt.Errorf("serve: accept: %w", err)
		}
		s.track(conn, true)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer s.track(conn, false)
			defer conn.Close()
			s.ServeConn(ctx, conn)
		}()
	}
}

// drain waits up to the grace period for connection goroutines, then
// force-closes the stragglers and waits for them to unwind.
func (s *Server) drain(wg *sync.WaitGroup) {
	idle := make(chan struct{})
	go func() {
		wg.Wait()
		close(idle)
	}()
	grace := s.Grace
	if grace <= 0 {
		grace = DefaultGrace
	}
	timer := time.NewTimer(grace)
	defer timer.Stop()
	select {
	case <-idle:
		return
	case <-timer.C:
	}
	s.mu.Lock()
	n := len(s.conns)
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	if n > 0 {
		s.Logf("shutdown grace %v expired, force-closed %d connections", grace, n)
	}
	<-idle
}

func (s *Server) track(conn net.Conn, add bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !add {
		delete(s.conns, conn)
		return
	}
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.conns[conn] = struct{}{}
}

// ServeConn runs one connection's request loop under ctx: each request
// is read under the idle deadline, checked for the protocol version,
// handed to Handle, and answered with its request ID echoed. Handler
// errors are answered in band with a stable code; only transport
// failures end the loop. Cancelling ctx wins over the idle-deadline
// re-arm: the loop observes the cancellation before reading another
// request, so an actively sending connection still drains promptly.
func (s *Server) ServeConn(ctx context.Context, conn net.Conn) {
	m := &s.Metrics
	m.ConnsTotal.Inc()
	m.ConnsActive.Inc()
	defer m.ConnsActive.Dec()
	pc := proto.NewConn(conn)
	// A connection accepted before shutdown may outlive ctx; cap reads so
	// the loop notices cancellation instead of blocking forever.
	stop := context.AfterFunc(ctx, func() { conn.SetReadDeadline(time.Now()) })
	defer stop()
	for {
		if ctx.Err() != nil {
			return
		}
		if s.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.ReadTimeout))
			// The AfterFunc's immediate deadline may have fired between
			// the check above and the re-arm, in which case the re-arm
			// just erased it. Re-assert so cancellation always wins and
			// the idle deadline can never push shutdown out.
			if ctx.Err() != nil {
				conn.SetReadDeadline(time.Now())
			}
		}
		env, err := pc.Receive()
		if err != nil {
			if !errors.Is(err, io.EOF) && ctx.Err() == nil {
				s.Logf("receive: %v", err)
			}
			return
		}
		resp, ok := s.answer(ctx, env)
		if !ok {
			return
		}
		if s.WriteTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout))
		}
		if err := pc.SendEnvelope(resp); err != nil {
			if ctx.Err() == nil {
				s.Logf("send: %v", err)
			}
			return
		}
	}
}

// answer checks and handles one request, recording its metrics and
// trace, and shapes a handler error into the in-band error reply. ok is
// false only when the error reply itself cannot be encoded.
func (s *Server) answer(ctx context.Context, env *proto.Envelope) (resp *proto.Envelope, ok bool) {
	m := &s.Metrics
	start := time.Now()
	var tr *telemetry.Trace
	if s.Traces != nil {
		tr = telemetry.NewTrace(env.RequestID, string(env.Type))
	}
	m.Inflight.Inc()
	herr := proto.CheckVersion(env)
	if herr != nil {
		herr = coded(proto.CodeBadRequest, herr)
	} else {
		resp, herr = s.Handle(ctx, env, tr)
	}
	m.Inflight.Dec()
	m.Requests.With(string(env.Type)).Inc()
	m.Latency.With(string(env.Type)).ObserveDuration(time.Since(start))
	var code string
	if herr != nil {
		code = proto.CodeInternal
		var se *Error
		if errors.As(herr, &se) {
			code = se.Code
		}
		m.Errors.With(code).Inc()
		s.Logf("%s: %v", env.Type, herr)
		var err error
		resp, err = proto.NewEnvelope(proto.TypeError, env.RequestID, proto.ErrorResponse{Code: code, Message: herr.Error()})
		if err != nil {
			s.Logf("encode error response: %v", err)
			return nil, false
		}
	}
	if tr != nil {
		s.Traces.Add(tr.Finish(code))
	}
	return resp, true
}

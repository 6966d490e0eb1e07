// Command echoimaged is the EchoImage authentication daemon: a TCP server
// that accepts captures over the length-prefixed JSON protocol, maintains
// per-user enrollment, trains the classifier stack on a background
// registry worker and answers authentication requests — the role the
// smart speaker's on-device service plays.
//
// Usage:
//
//	echoimaged -listen 127.0.0.1:7465 -grid 36 -spacing 0.05
//	echoimaged -listen 127.0.0.1:7465 -admin-addr 127.0.0.1:7466
//
// With -admin-addr the daemon serves its observability endpoints —
// /metrics (Prometheus text), /varz (JSON snapshot with recent request
// traces), /healthz and /debug/pprof/* — on a separate listener, so
// scraping and profiling never compete with the authentication socket.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"echoimage/internal/array"
	"echoimage/internal/core"
	"echoimage/internal/daemon"
	"echoimage/internal/serve"
	"echoimage/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "echoimaged:", err)
		os.Exit(1)
	}
}

func run() error {
	listenAddr := flag.String("listen", "127.0.0.1:7465", "TCP listen address")
	gridSize := flag.Int("grid", 36, "imaging grid rows/cols")
	spacing := flag.Float64("spacing", 0.05, "imaging grid spacing, meters")
	modelPath := flag.String("model", "", "model file: loaded at startup if present, saved after every retrain")
	stateDir := flag.String("state-dir", "", "per-user state directory: handoff flushes write user blobs here and startup restores them (empty = no shard-local persistence)")
	maxCaptures := flag.Int("max-captures", 0, "max concurrently processed captures (0 = GOMAXPROCS)")
	idleTimeout := flag.Duration("idle-timeout", 5*time.Minute, "drop a connection idle for this long (0 = never)")
	writeTimeout := flag.Duration("write-timeout", 30*time.Second, "per-response write deadline (0 = none)")
	requestTimeout := flag.Duration("request-timeout", 0, "cancel a single request's pipeline work after this long (0 = no cap)")
	queueWait := flag.Duration("queue-wait", daemon.DefaultQueueWait, "how long a capture may wait for a processing slot before being shed with code overloaded (negative = shed immediately)")
	shutdownGrace := flag.Duration("shutdown-grace", serve.DefaultGrace, "on SIGTERM, wait this long for in-flight connections to drain before force-closing them")
	adminAddr := flag.String("admin-addr", "", "serve /metrics, /varz, /healthz and /debug/pprof on this address (empty = disabled)")
	flag.Parse()

	cfg := core.DefaultConfig()
	cfg.GridRows, cfg.GridCols = *gridSize, *gridSize
	cfg.GridSpacingM = *spacing
	sys, err := core.NewSystem(cfg, array.ReSpeaker())
	if err != nil {
		return fmt.Errorf("build pipeline: %w", err)
	}

	ln, err := net.Listen("tcp", *listenAddr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	log.Printf("echoimaged listening on %s (grid %dx%d @ %.2f m)", ln.Addr(), *gridSize, *gridSize, *spacing)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := daemon.NewWithOptions(sys, core.DefaultAuthConfig(), log.Printf, daemon.Options{
		ModelPath:      *modelPath,
		StateDir:       *stateDir,
		MaxCaptures:    *maxCaptures,
		ReadTimeout:    *idleTimeout,
		WriteTimeout:   *writeTimeout,
		RequestTimeout: *requestTimeout,
		QueueWait:      *queueWait,
		ShutdownGrace:  *shutdownGrace,
		Telemetry:      telemetry.NewRegistry(),
	})
	defer srv.Close()

	if *adminAddr != "" {
		adminLn, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			return fmt.Errorf("admin listen: %w", err)
		}
		admin := &http.Server{Handler: telemetry.AdminHandler(telemetry.AdminOptions{
			Registry: srv.Telemetry(),
			Traces:   srv.Traces(),
			Health:   srv.Healthy,
			Varz: map[string]func() any{
				"status": func() any { return srv.Status() },
				"model":  func() any { return srv.ModelInfo() },
			},
		})}
		go func() {
			if err := admin.Serve(adminLn); err != nil && err != http.ErrServerClosed {
				log.Printf("admin server: %v", err)
			}
		}()
		defer admin.Close()
		log.Printf("admin endpoints on http://%s (/metrics /varz /healthz /debug/pprof)", adminLn.Addr())
	}
	if *stateDir != "" {
		restored, rerr := srv.RestoreState()
		if rerr != nil {
			// Partial restores keep serving: report the broken blobs, run
			// with everything that loaded.
			log.Printf("state restore from %s: %v", *stateDir, rerr)
		}
		if restored > 0 {
			log.Printf("restored %d users from %s (retrain queued)", restored, *stateDir)
		}
	}
	if *modelPath != "" {
		if f, err := os.Open(*modelPath); err == nil {
			loadErr := srv.LoadModel(f)
			f.Close()
			if loadErr != nil {
				return fmt.Errorf("load model %s: %w", *modelPath, loadErr)
			}
			log.Printf("loaded model from %s", *modelPath)
		}
	}
	if err := srv.Serve(ctx, ln); err != nil {
		return err
	}
	log.Printf("echoimaged stopped")
	return nil
}
